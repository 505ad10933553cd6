package fleet

// Completion-payload coverage: a worker's failure crosses the wire as
// its inner message plus the completed prefix, so the run error names
// the failing point once and the prefix is salvaged exactly as a local
// run salvages it; compute time keeps nanosecond resolution; and the
// decoder round-trips whatever it accepts.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"testing"
	"time"

	"github.com/llama-surface/llama/internal/experiments"
)

func init() {
	// A test-only sweep that fails at its last point, for the remote
	// failure path.
	experiments.RegisterSweep(&experiments.Sweep{
		ID:          "fleet-fail",
		Description: "test-only sweep failing at point 5 of 6",
		Title:       "fleet failure fixture",
		Columns:     []string{"i", "seed"},
		Points:      6,
		Point: func(ctx context.Context, seed int64, i int) (experiments.PointResult, error) {
			if i == 5 {
				return experiments.PointResult{}, errors.New("boom")
			}
			return experiments.Row(float64(i), float64(seed)), nil
		},
	})
}

// TestRemoteFailureNamedOnce: a sweep failing at point 5 of 6, computed
// by a Worker over real HTTP, fails the run with the error a local run
// reports — point 5/6 named once — and salvages the same 5-row prefix,
// at one or two points per job and unsharded.
func TestRemoteFailureNamedOnce(t *testing.T) {
	const want = "experiments: fleet-fail (seed 1): point 5/6: boom"
	for _, spec := range []experiments.RunSpec{
		{IDs: []string{"fleet-fail"}, ShardRows: true, BatchRows: 1},
		{IDs: []string{"fleet-fail"}, ShardRows: true, BatchRows: 2},
		{IDs: []string{"fleet-fail"}},
	} {
		sched, _, ts := httpFleet(t, 5*time.Second)
		_, stop := startWorkers(t, ts.URL, 1, nil)
		h, err := sched.Submit(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := h.Report()
		stop()
		if err == nil || err.Error() != want {
			t.Fatalf("batch %d shard %v: err = %v, want %q", spec.BatchRows, spec.ShardRows, err, want)
		}
		if len(rep.Salvaged) != 1 || len(rep.Salvaged[0].Rows) != 5 {
			t.Fatalf("batch %d shard %v: salvage = %+v, want one 5-row prefix", spec.BatchRows, spec.ShardRows, rep.Salvaged)
		}
	}
}

// TestRemoteFailureOldWorker: a worker that sends only the failure's
// full message, with no prefix, keeps today's text — the failure
// lands at the batch's first point.
func TestRemoteFailureOldWorker(t *testing.T) {
	sched, c, _ := httpFleet(t, 5*time.Second)
	h, err := sched.Submit(context.Background(), experiments.RunSpec{IDs: []string{"fleet-fail"}, ShardRows: true, BatchRows: 2})
	if err != nil {
		t.Fatal(err)
	}
	for {
		g, ok := c.Lease("old")
		if !ok {
			break
		}
		if g.Desc.Point == 4 {
			if err := c.Complete(g.ID, experiments.ExternalResult{}, "point 5/6: boom"); err != nil {
				t.Fatal(err)
			}
			continue
		}
		res, err := experiments.ComputeJob(context.Background(), g.Desc)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Complete(g.ID, res, ""); err != nil {
			t.Fatal(err)
		}
	}
	const want = "experiments: fleet-fail (seed 1): point 4/6: point 5/6: boom"
	if _, err := h.Report(); err == nil || err.Error() != want {
		t.Errorf("err = %v, want %q", err, want)
	}
}

// TestWireElapsedNanos: a sub-millisecond compute time crosses the
// completion payload unchanged (elapsed_ms alone truncates it to 0),
// and a payload that carries only elapsed_ms still decodes.
func TestWireElapsedNanos(t *testing.T) {
	body, err := json.Marshal(toWire(experiments.ExternalResult{Elapsed: 300 * time.Microsecond}))
	if err != nil {
		t.Fatal(err)
	}
	var req completeRequest
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	if res, err := fromWire(req); err != nil || res.Elapsed != 300*time.Microsecond {
		t.Errorf("elapsed = %v (%v), want 300µs; payload %s", res.Elapsed, err, body)
	}
	if res, err := fromWire(completeRequest{ElapsedMillis: 7}); err != nil || res.Elapsed != 7*time.Millisecond {
		t.Errorf("elapsed_ms only: elapsed = %v (%v), want 7ms", res.Elapsed, err)
	}
}

// FuzzFromWire: the completion decoder must never panic, and whatever
// it accepts must survive toWire, JSON and fromWire again bit-exactly,
// NaN and ±Inf included. The seed corpus holds real completions: a
// sharded batch with NaN/±Inf cells, a whole-cell table, and a failure
// carrying its completed prefix.
func FuzzFromWire(f *testing.F) {
	for _, name := range []string{"complete_points.json", "complete_cell.json", "fail_prefix.json"} {
		data, err := os.ReadFile("testdata/" + name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req completeRequest
		if json.Unmarshal(data, &req) != nil {
			return
		}
		res, err := fromWire(req)
		if err != nil {
			return
		}
		body, err := json.Marshal(toWire(res))
		if err != nil {
			t.Fatalf("re-encoding an accepted payload: %v", err)
		}
		var again completeRequest
		if err := json.Unmarshal(body, &again); err != nil {
			t.Fatalf("re-encoded payload does not parse: %v", err)
		}
		back, err := fromWire(again)
		if err != nil {
			t.Fatalf("re-encoded payload rejected: %v", err)
		}
		if diff := resultDiff(res, back); diff != "" {
			t.Fatalf("round trip changed the result: %s", diff)
		}
	})
}

// resultDiff names the first difference between two results, comparing
// floats by bits; "" when they are identical.
func resultDiff(a, b experiments.ExternalResult) string {
	if a.Elapsed != b.Elapsed {
		return "elapsed"
	}
	if len(a.Points) != len(b.Points) {
		return "point count"
	}
	for i := range a.Points {
		if !sameRows(a.Points[i].Rows, b.Points[i].Rows) || !slices.Equal(a.Points[i].Notes, b.Points[i].Notes) {
			return fmt.Sprintf("point %d", i)
		}
	}
	switch ac, bc := a.Cell, b.Cell; {
	case (ac == nil) != (bc == nil):
		return "cell presence"
	case ac == nil:
		return ""
	case ac.ID != bc.ID || ac.Title != bc.Title || !slices.Equal(ac.Columns, bc.Columns) || !slices.Equal(ac.Notes, bc.Notes):
		return "cell header"
	case !sameRows(ac.Rows, bc.Rows):
		return "cell rows"
	}
	return ""
}

// sameRows compares two tables cell by cell on float bits.
func sameRows(a, b [][]float64) bool {
	return slices.EqualFunc(a, b, func(x, y []float64) bool {
		return slices.EqualFunc(x, y, func(u, v float64) bool { return math.Float64bits(u) == math.Float64bits(v) })
	})
}
