package experiments

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// sameResult compares two results bit-for-bit. reflect.DeepEqual is not
// usable here: some tables legitimately carry NaN cells (e.g.
// ext-multilink's no-surface bias columns) and DeepEqual declares
// NaN ≠ NaN. Comparing the raw float64 bit patterns is both NaN-safe
// and the literal "bit-identical" contract the engine promises.
func sameResult(a, b *Result) bool {
	if a.ID != b.ID || a.Title != b.Title ||
		!reflect.DeepEqual(a.Columns, b.Columns) || !reflect.DeepEqual(a.Notes, b.Notes) ||
		len(a.Rows) != len(b.Rows) {
		return false
	}
	for ri := range a.Rows {
		if len(a.Rows[ri]) != len(b.Rows[ri]) {
			return false
		}
		for ci := range a.Rows[ri] {
			if math.Float64bits(a.Rows[ri][ci]) != math.Float64bits(b.Rows[ri][ci]) {
				return false
			}
		}
	}
	return true
}

// TestEngineMatchesSerial is the cross-cutting determinism contract: for
// every seed the paper cares about, a single-worker Execute, a wide
// Execute, and the serial reference path must produce bit-identical
// result slices. Run it under -race: the worker pool is the only place
// concurrency touches experiment state, so a clean pass here certifies
// the whole fan-out.
func TestEngineMatchesSerial(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []int64{1, 7, 42} {
		serial, err := RunAll(ctx, seed)
		if err != nil {
			t.Fatalf("seed %d: serial: %v", seed, err)
		}
		for _, workers := range []int{1, 8} {
			rep, err := Execute(ctx, Options{Concurrency: workers, Seeds: []int64{seed}})
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			got := rep.Results
			if len(got) != len(serial) {
				t.Fatalf("seed %d workers %d: %d results, serial %d", seed, workers, len(got), len(serial))
			}
			for i := range got {
				if !sameResult(got[i], serial[i]) {
					t.Errorf("seed %d workers %d: result %q differs from serial path", seed, workers, got[i].ID)
				}
			}
		}
	}
}

// TestEngineCancellation cancels a run mid-flight and checks it returns
// promptly with ctx.Err() and leaks no goroutines. The cancel comes from
// inside the run — the point of a test sweep that sorts a few
// experiments deep — so the run cannot finish before it.
func TestEngineCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tempSweep(t, &Sweep{
		ID:          "cancel-probe",
		Description: "test sweep whose point cancels the run",
		Title:       "cancelling sweep",
		Columns:     []string{"i"},
		Points:      1,
		Point: func(pctx context.Context, seed int64, i int) (PointResult, error) {
			cancel()
			<-pctx.Done()
			return PointResult{}, pctx.Err()
		},
	})
	start := time.Now()
	_, err := Execute(ctx, Options{Concurrency: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("cancelled Execute took %v, want prompt return", d)
	}
	// Workers drain synchronously before Execute returns, so the goroutine
	// count must settle back to (roughly) the pre-call level; poll a
	// little to absorb unrelated runtime goroutines winding down.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: before=%d after=%d — worker leak", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestEngineCancelledBeforeStart: an already-dead context must not run
// anything.
func TestEngineCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := Execute(ctx, Options{Concurrency: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep != nil && len(rep.Results) != 0 {
		t.Errorf("dead context still produced %d results", len(rep.Results))
	}
}

// TestCollectSalvagesCompletedOnCancel: cancellation mid-run must not
// throw away tables that already finished — the report carries them
// alongside ctx.Err(). Uses two temporary one-point sweeps so the
// ordering is deterministic: the fast experiment signals completion,
// then the test cancels while the slow one is still blocked.
func TestCollectSalvagesCompletedOnCancel(t *testing.T) {
	done := make(chan struct{})
	tempSweep(t, &Sweep{
		ID: "zz-fast", Title: "salvage probe", Columns: []string{"seed"}, Points: 1,
		Point: func(ctx context.Context, seed int64, i int) (PointResult, error) {
			close(done)
			return Row(float64(seed)), nil
		},
	})
	tempSweep(t, &Sweep{
		ID: "zz-slow", Title: "salvage probe", Columns: []string{"seed"}, Points: 1,
		Point: func(ctx context.Context, seed int64, i int) (PointResult, error) {
			<-ctx.Done()
			return PointResult{}, ctx.Err()
		},
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-done
		cancel()
	}()
	rep, err := Execute(ctx, Options{Concurrency: 2, IDs: []string{"zz-fast", "zz-slow"}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(rep.Results) != 1 || rep.Results[0].ID != "zz-fast" {
		t.Fatalf("completed results not salvaged: %+v", rep.Results)
	}
}

// TestEngineUnknownID rejects bad ID subsets up front.
func TestEngineUnknownID(t *testing.T) {
	if _, err := Execute(context.Background(), Options{IDs: []string{"tab1", "nope"}}); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("err = %v, want unknown-id error naming %q", err, "nope")
	}
}

// TestReplicateStatistics checks the mean/stddev aggregation against a
// hand-rolled fold over the individual per-seed runs, and that the
// x-axis column (identical across seeds) carries zero spread.
func TestReplicateStatistics(t *testing.T) {
	ctx := context.Background()
	seeds := []int64{1, 2, 3}
	ids := []string{"fig2a", "tab1"}
	rep, err := Execute(ctx, Options{Concurrency: 4, IDs: ids, Seeds: seeds})
	if err != nil {
		t.Fatal(err)
	}
	agg := rep.Replicated
	if len(agg) != len(ids) {
		t.Fatalf("replicated %d experiments, want %d", len(agg), len(ids))
	}
	for _, rr := range agg {
		runs := make([]*Result, len(seeds))
		for i, s := range seeds {
			runs[i], err = Run(ctx, rr.ID, s)
			if err != nil {
				t.Fatal(err)
			}
		}
		if len(rr.Mean) != len(runs[0].Rows) || len(rr.Stddev) != len(runs[0].Rows) {
			t.Fatalf("%s: aggregate shape %d rows, want %d", rr.ID, len(rr.Mean), len(runs[0].Rows))
		}
		for ri := range runs[0].Rows {
			for ci := range runs[0].Columns {
				same := true
				var sum float64
				for _, r := range runs {
					same = same && r.Rows[ri][ci] == runs[0].Rows[ri][ci]
					sum += r.Rows[ri][ci]
				}
				mean := sum / float64(len(runs))
				var ss float64
				for _, r := range runs {
					d := r.Rows[ri][ci] - mean
					ss += d * d
				}
				sd := math.Sqrt(ss / float64(len(runs)-1))
				if same { // identical cells fold exactly (no sum/n rounding)
					mean, sd = runs[0].Rows[ri][ci], 0
				}
				if got := rr.Mean[ri][ci]; got != mean {
					t.Fatalf("%s[%d][%d]: mean %v, want %v", rr.ID, ri, ci, got, mean)
				}
				if got := rr.Stddev[ri][ci]; got != sd {
					t.Fatalf("%s[%d][%d]: stddev %v, want %v", rr.ID, ri, ci, got, sd)
				}
			}
		}
		// Column 0 is the independent axis in both tables: same for
		// every seed, so its spread must be exactly zero.
		for ri := range rr.Stddev {
			if rr.Stddev[ri][0] != 0 {
				t.Errorf("%s row %d: x-axis stddev = %v, want 0", rr.ID, ri, rr.Stddev[ri][0])
			}
		}
	}
}

// TestReplicateDeterministicAcrossWorkers: the aggregate statistics must
// be bit-identical no matter how the (experiment × seed) cells were
// scheduled.
func TestReplicateDeterministicAcrossWorkers(t *testing.T) {
	ctx := context.Background()
	seeds := []int64{1, 7, 42}
	ids := []string{"fig2a", "fig16", "tab1"}
	var ref []*ReplicatedResult
	for _, workers := range []int{1, 3, 8} {
		rep, err := Execute(ctx, Options{Concurrency: workers, IDs: ids, Seeds: seeds})
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		agg := rep.Replicated
		for i := range agg {
			agg[i].Elapsed = 0 // wall time legitimately varies
		}
		if ref == nil {
			ref = agg
			continue
		}
		if !reflect.DeepEqual(agg, ref) {
			t.Errorf("workers %d: replicated aggregate differs from single-worker reference", workers)
		}
	}
}

// TestExecuteReport covers the Options→Report path llama.RunExperiments
// uses: defaults, timings, and the multi-seed switch.
func TestExecuteReport(t *testing.T) {
	ctx := context.Background()
	rep, err := Execute(ctx, Options{IDs: []string{"tab1", "fig16"}, Concurrency: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Seeds) != 1 || rep.Seeds[0] != 1 {
		t.Errorf("default seeds = %v, want [1]", rep.Seeds)
	}
	if rep.Replicated != nil {
		t.Error("single-seed run should not aggregate")
	}
	if len(rep.Results) != 2 || len(rep.Timings) != 2 {
		t.Fatalf("report shape: %d results, %d timings", len(rep.Results), len(rep.Timings))
	}
	if rep.Results[0].ID != "fig16" || rep.Results[1].ID != "tab1" {
		t.Errorf("results out of ID order: %s, %s", rep.Results[0].ID, rep.Results[1].ID)
	}
	for _, tm := range rep.Timings {
		if tm.Elapsed <= 0 {
			t.Errorf("%s: no wall time recorded", tm.ID)
		}
	}
	if rep.Wall <= 0 {
		t.Error("no total wall time recorded")
	}
	var sb strings.Builder
	if err := rep.Render(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"engine:", "tab1", "fig16"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("report render missing %q:\n%s", want, sb.String())
		}
	}

	multi, err := Execute(ctx, Options{IDs: []string{"tab1"}, Seeds: []int64{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if len(multi.Replicated) != 1 || len(multi.Replicated[0].Seeds) != 3 {
		t.Fatalf("multi-seed run: %+v", multi.Replicated)
	}
	if len(multi.Results) != 1 || multi.Results[0].ID != "tab1" {
		t.Errorf("multi-seed run should still carry the first seed's tables")
	}
}

// TestReplicatedRender spot-checks the mean±stddev text table.
func TestReplicatedRender(t *testing.T) {
	rr := &ReplicatedResult{
		ID:      "x",
		Title:   "sample",
		Columns: []string{"d", "v"},
		Seeds:   []int64{1, 2},
		Mean:    [][]float64{{10, 2.5}},
		Stddev:  [][]float64{{0, 0.5}},
	}
	var sb strings.Builder
	if err := rr.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"== x: sample [2 seeds]", "10.00", "2.50±0.50"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "10.00±") {
		t.Errorf("zero-spread cell should render plain:\n%s", out)
	}
}

// TestReplicateShapeMismatch: experiments whose table shape varies with
// the seed cannot be aggregated and must fail loudly, not fold garbage.
func TestReplicateShapeMismatch(t *testing.T) {
	_, err := replicate("x", []int64{1, 2}, []*Result{
		{Columns: []string{"a"}, Rows: [][]float64{{1}}},
		{Columns: []string{"a"}, Rows: [][]float64{{1}, {2}}},
	}, 0)
	if err == nil || !strings.Contains(err.Error(), "non-uniform shape") {
		t.Fatalf("err = %v, want shape mismatch", err)
	}
}
