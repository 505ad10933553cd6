package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// tempSweep registers a sweep for the duration of one test.
func tempSweep(t *testing.T, s *Sweep) {
	t.Helper()
	registerSweep(s)
	t.Cleanup(func() {
		delete(sweeps, s.ID)
	})
}

// countingSweep builds an n-point sweep whose point i yields the row
// {i, seed} and whose Finish adds a row-count note.
func countingSweep(id string, n int) *Sweep {
	return &Sweep{
		ID:          id,
		Description: "test sweep",
		Title:       "test sweep " + id,
		Columns:     []string{"point", "seed"},
		Points:      n,
		Point: func(ctx context.Context, seed int64, i int) (PointResult, error) {
			return Row(float64(i), float64(seed)), nil
		},
		Finish: func(res *Result, seed int64) error {
			res.AddNote("%d rows assembled", len(res.Rows))
			return nil
		},
	}
}

// TestSweepZeroPoints: an empty axis is legal — the serial path, the
// engine sharded or not, and a lease-only scheduler all yield an empty
// table, and Finish still runs. The cell queues no job, so finalize
// assembles it.
func TestSweepZeroPoints(t *testing.T) {
	tempSweep(t, countingSweep("zz-empty", 0))
	ctx := context.Background()

	serial, err := Run(ctx, "zz-empty", 1)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	if len(serial.Rows) != 0 {
		t.Fatalf("serial rows = %d, want 0", len(serial.Rows))
	}
	if len(serial.Notes) != 1 || serial.Notes[0] != "0 rows assembled" {
		t.Fatalf("Finish did not run on empty sweep: notes = %v", serial.Notes)
	}

	spec := RunSpec{IDs: []string{"zz-empty"}}
	leaseOnly := func() (*Report, error) {
		sched := NewScheduler(SchedulerConfig{LeaseOnly: true})
		defer sched.Close()
		h, err := sched.Submit(ctx, spec)
		if err != nil {
			return nil, err
		}
		return h.Report()
	}
	for _, mode := range []struct {
		name string
		run  func() (*Report, error)
	}{
		{"unsharded", func() (*Report, error) { return Execute(ctx, Options{Concurrency: 4, IDs: spec.IDs}) }},
		{"sharded", func() (*Report, error) { return Execute(ctx, Options{Concurrency: 4, ShardRows: true, IDs: spec.IDs}) }},
		{"lease-only", leaseOnly},
	} {
		rep, err := mode.run()
		if err != nil {
			t.Fatalf("%s: %v", mode.name, err)
		}
		if got := rep.Results; len(got) != 1 || !sameResult(got[0], serial) {
			t.Fatalf("%s zero-point sweep differs from serial: %+v", mode.name, got)
		}
	}
}

// TestSweepPointErrorSerial: the serial path returns the completed prefix
// alongside a *PointError naming the failing point.
func TestSweepPointErrorSerial(t *testing.T) {
	boom := errors.New("boom")
	s := countingSweep("zz-fail", 5)
	inner := s.Point
	s.Point = func(ctx context.Context, seed int64, i int) (PointResult, error) {
		if i == 3 {
			return PointResult{}, boom
		}
		return inner(ctx, seed, i)
	}
	tempSweep(t, s)

	res, err := Run(context.Background(), "zz-fail", 1)
	var perr *PointError
	if !errors.As(err, &perr) || perr.Point != 3 || perr.Points != 5 {
		t.Fatalf("err = %v, want *PointError naming point 3/5", err)
	}
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v does not unwrap to the point failure", err)
	}
	if res == nil || len(res.Rows) != 3 {
		t.Fatalf("salvaged prefix = %+v, want the 3 completed rows", res)
	}
	for i, row := range res.Rows {
		if row[0] != float64(i) {
			t.Errorf("salvaged row %d = %v, out of axis order", i, row)
		}
	}
	if len(res.Notes) != 0 {
		t.Errorf("Finish ran on a truncated table: notes = %v", res.Notes)
	}
}

// TestSweepPointErrorMidShard: a sharded engine run whose per-point fn
// fails names the experiment, seed and point, and the report salvages the
// contiguous completed prefix.
func TestSweepPointErrorMidShard(t *testing.T) {
	boom := errors.New("boom")
	s := countingSweep("zz-shardfail", 5)
	inner := s.Point
	s.Point = func(ctx context.Context, seed int64, i int) (PointResult, error) {
		if i == 3 {
			return PointResult{}, boom
		}
		return inner(ctx, seed, i)
	}
	tempSweep(t, s)

	// One worker makes completion deterministic: points 0..2 finish
	// before point 3 fails and point 4 is never fed.
	rep, err := Execute(context.Background(), Options{Concurrency: 1, ShardRows: true, IDs: []string{"zz-shardfail"}, Seeds: []int64{7}})
	if err == nil {
		t.Fatal("mid-shard failure not reported")
	}
	for _, want := range []string{"zz-shardfail", "seed 7", "point 3/5", "boom"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("err %q does not name %q", err, want)
		}
	}
	if !errors.Is(err, boom) {
		t.Errorf("err = %v does not unwrap to the point failure", err)
	}
	if len(rep.Results) != 0 {
		t.Errorf("failed sweep still produced %d full results", len(rep.Results))
	}
	if len(rep.Salvaged) != 1 || len(rep.Salvaged[0].Rows) != 3 {
		t.Fatalf("salvage = %+v, want one partial table with 3 rows", rep.Salvaged)
	}
	for i, row := range rep.Salvaged[0].Rows {
		if row[0] != float64(i) || row[1] != 7 {
			t.Errorf("salvaged row %d = %v, want [%d 7]", i, row, i)
		}
	}
}

// TestSweepPointErrorNamesRealFailure: with several workers, fail-fast
// cancellation lands context.Canceled in whichever points were in flight
// — the reported error must still name the point that actually broke,
// not a lower-indexed cancelled one.
func TestSweepPointErrorNamesRealFailure(t *testing.T) {
	boom := errors.New("boom")
	s := countingSweep("zz-cancelmask", 5)
	s.Point = func(ctx context.Context, seed int64, i int) (PointResult, error) {
		if i == 3 {
			return PointResult{}, boom
		}
		// Every other point parks until the fail-fast cancellation, so
		// cancelled errors deterministically occupy lower slots.
		<-ctx.Done()
		return PointResult{}, ctx.Err()
	}
	tempSweep(t, s)

	_, err := Execute(context.Background(), Options{Concurrency: 4, ShardRows: true, IDs: []string{"zz-cancelmask"}})
	if err == nil {
		t.Fatal("mid-shard failure not reported")
	}
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the real point failure, not a cancellation", err)
	}
	var perr *PointError
	if !errors.As(err, &perr) || perr.Point != 3 {
		t.Fatalf("err = %v, want PointError naming point 3", err)
	}
}

// TestShardedEngineMatchesSerial is the row-sharding determinism
// contract: for every registered experiment, a sharded Execute at 1 and
// 8 workers reproduces the serial RunAll tables bit-for-bit. Run under
// -race this also certifies that per-point slot collection is the only
// place shards touch shared state.
func TestShardedEngineMatchesSerial(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []int64{1, 7} {
		serial, err := RunAll(ctx, seed)
		if err != nil {
			t.Fatalf("seed %d: serial: %v", seed, err)
		}
		for _, workers := range []int{1, 8} {
			rep, err := Execute(ctx, Options{Concurrency: workers, ShardRows: true, Seeds: []int64{seed}})
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			got := rep.Results
			if len(got) != len(serial) {
				t.Fatalf("seed %d workers %d: %d results, serial %d", seed, workers, len(got), len(serial))
			}
			for i := range got {
				if !sameResult(got[i], serial[i]) {
					t.Errorf("seed %d workers %d: sharded result %q differs from serial path", seed, workers, got[i].ID)
				}
			}
		}
	}
}

// TestShardedReplicateMatchesUnsharded: the multi-seed aggregates must be
// bit-identical whether rows sharded or not.
func TestShardedReplicateMatchesUnsharded(t *testing.T) {
	ctx := context.Background()
	seeds := []int64{1, 7, 42}
	ids := []string{"fig2a", "fig16", "tab1"}
	plain, err := Execute(ctx, Options{Concurrency: 4, IDs: ids, Seeds: seeds})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := Execute(ctx, Options{Concurrency: 4, IDs: ids, Seeds: seeds, ShardRows: true})
	if err != nil {
		t.Fatal(err)
	}
	ref, agg := plain.Replicated, sharded.Replicated
	if len(agg) != len(ref) {
		t.Fatalf("sharded replicated %d experiments, want %d", len(agg), len(ref))
	}
	for i := range agg {
		a, b := agg[i], ref[i]
		if a.ID != b.ID || fmt.Sprint(a.Mean) != fmt.Sprint(b.Mean) || fmt.Sprint(a.Stddev) != fmt.Sprint(b.Stddev) {
			t.Errorf("sharded aggregate %q differs from unsharded reference", a.ID)
		}
	}
}

// TestShardedReportShape: the timing rows of a run carry the row counts
// and the shard counts the Render summary reports. Timing.Points is the
// axis length of a sharded experiment, whatever the batch size, and 1
// for an unsharded one — never the job count.
func TestShardedReportShape(t *testing.T) {
	ctx := context.Background()
	rep, err := Execute(ctx, Options{IDs: []string{"fig16", "tab1"}, Concurrency: 2, ShardRows: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ShardRows {
		t.Error("report does not record row sharding")
	}
	byID := map[string]Timing{}
	for _, tm := range rep.Timings {
		byID[tm.ID] = tm
	}
	if tm := byID["fig16"]; tm.Points != len(Fig15Distances) || tm.Rows != len(Fig15Distances) {
		t.Errorf("fig16 timing = %+v, want %d points/rows", tm, len(Fig15Distances))
	}
	if tm := byID["tab1"]; tm.Points != len(Table1Biases) || tm.Rows != len(Table1Biases) {
		t.Errorf("tab1 timing = %+v, want %d points/rows", tm, len(Table1Biases))
	}
	for _, tm := range rep.Timings {
		if tm.Busy <= 0 || tm.Elapsed <= 0 {
			t.Errorf("%s: no busy/wall time recorded: %+v", tm.ID, tm)
		}
	}
	var sb strings.Builder
	if err := rep.Render(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"row-sharded", "shards", "rows"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("sharded report render missing %q:\n%s", want, sb.String())
		}
	}

	// fig10 unsharded, sharded, and sharded in 4-point batches.
	n := sweeps["fig10"].Points
	for _, tc := range []struct {
		opts   Options
		points int
	}{
		{Options{IDs: []string{"fig10"}, Concurrency: 2}, 1},
		{Options{IDs: []string{"fig10"}, Concurrency: 2, ShardRows: true}, n},
		{Options{IDs: []string{"fig10"}, Concurrency: 2, ShardRows: true, BatchRows: 4}, n},
	} {
		rep, err := Execute(ctx, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Timings) != 1 || rep.Timings[0].Points != tc.points {
			t.Errorf("shard %v batch %d: timings %+v, want Points %d", tc.opts.ShardRows, tc.opts.BatchRows, rep.Timings, tc.points)
		}
		var sb strings.Builder
		if err := rep.Render(&sb); err != nil {
			t.Fatal(err)
		}
		shards := fmt.Sprintf("%4d shards", n)
		if got := strings.Contains(sb.String(), shards); got != tc.opts.ShardRows {
			t.Errorf("shard %v batch %d: render has %q = %v, want %v:\n%s", tc.opts.ShardRows, tc.opts.BatchRows, shards, got, tc.opts.ShardRows, sb.String())
		}
	}
}

// TestAxisMatchesLoop: axis must reproduce the accumulating loop exactly,
// endpoint semantics included.
func TestAxisMatchesLoop(t *testing.T) {
	got := axis(2.0e9, 2.8e9+1e6, 0.02e9)
	var want []float64
	for f := 2.0e9; f <= 2.8e9+1e6; f += 0.02e9 {
		want = append(want, f)
	}
	if len(got) != len(want) {
		t.Fatalf("axis length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("axis[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}
