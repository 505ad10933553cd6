package experiments

// Regression coverage for mid-batch failure salvage: whatever the batch
// size, worker count, or completion order, Report.Salvaged must carry
// only contiguous completed row prefixes — a failure inside one batch
// while later batches have already completed must not punch holes into
// (or zero-fill) the salvaged table — and a failure in one seed's cell
// must not discard sibling seeds' complete tables. Run under -race in
// CI.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestBatchedSalvageLaterBatchesComplete is the adversarial ordering for
// batched salvage: batch [3..5]'s point 4 fails only after the last
// batch [6..8] has fully completed on another worker, so the done flags
// are non-contiguous at failure time. The salvaged table must still be
// exactly points 0..3 — no holes, no zero-filled rows from the
// never-run point 5.
func TestBatchedSalvageLaterBatchesComplete(t *testing.T) {
	boom := errors.New("boom")
	var mu sync.Mutex
	done := map[int]bool{}
	lastBatchDone := make(chan struct{})
	s := countingSweep("zz-latebatch", 9)
	inner := s.Point
	s.Point = func(ctx context.Context, seed int64, i int) (PointResult, error) {
		if i == 4 {
			<-lastBatchDone
			return PointResult{}, boom
		}
		pt, err := inner(ctx, seed, i)
		mu.Lock()
		done[i] = true
		if done[6] && done[7] && done[8] {
			select {
			case <-lastBatchDone:
			default:
				close(lastBatchDone)
			}
		}
		mu.Unlock()
		return pt, err
	}
	tempSweep(t, s)

	rep, err := Execute(context.Background(), Options{Concurrency: 8, ShardRows: true, BatchRows: 3, IDs: []string{"zz-latebatch"}, Seeds: []int64{7}})
	if err == nil {
		t.Fatal("mid-batch failure not reported")
	}
	for _, want := range []string{"zz-latebatch", "seed 7", "point 4/9", "boom"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("err %q does not name %q", err, want)
		}
	}
	if len(rep.Salvaged) != 1 {
		t.Fatalf("salvage = %d tables, want 1", len(rep.Salvaged))
	}
	rows := rep.Salvaged[0].Rows
	if len(rows) != 4 {
		t.Fatalf("salvaged %d rows, want the 4-point prefix: %v", len(rows), rows)
	}
	for i, row := range rows {
		if row[0] != float64(i) || row[1] != 7 {
			t.Fatalf("salvaged row %d = %v, want [%d 7] — hole or zero-filled row", i, row, i)
		}
	}
}

// TestBatchedFailureKeepsSiblingSeeds: a mid-batch failure in one seed's
// cell must not throw away a sibling seed's fully completed table — the
// report salvages both the complete sibling and the failed cell's
// contiguous prefix, at 1 and 8 workers.
func TestBatchedFailureKeepsSiblingSeeds(t *testing.T) {
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			boom := errors.New("boom")
			var seed1Done atomic.Int32
			seed1Complete := make(chan struct{})
			id := fmt.Sprintf("zz-sibling%d", workers)
			s := countingSweep(id, 9)
			inner := s.Point
			s.Point = func(ctx context.Context, seed int64, i int) (PointResult, error) {
				if seed == 2 && i == 3 {
					// Fail only after seed 1's cell fully completed, so the
					// sibling's table deterministically exists.
					<-seed1Complete
					return PointResult{}, boom
				}
				pt, err := inner(ctx, seed, i)
				if seed == 1 && err == nil && seed1Done.Add(1) == 9 {
					close(seed1Complete)
				}
				return pt, err
			}
			tempSweep(t, s)

			rep, err := Execute(context.Background(), Options{Concurrency: workers, ShardRows: true, BatchRows: 3, IDs: []string{id}, Seeds: []int64{1, 2}})
			if err == nil {
				t.Fatal("mid-batch failure not reported")
			}
			for _, want := range []string{id, "seed 2", "point 3/9", "boom"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("err %q does not name %q", err, want)
				}
			}
			if len(rep.Results) != 0 {
				t.Errorf("failed experiment row still produced %d full results", len(rep.Results))
			}
			if len(rep.Salvaged) != 2 {
				t.Fatalf("salvage = %d tables, want seed 1's complete table + seed 2's prefix", len(rep.Salvaged))
			}
			complete, prefix := rep.Salvaged[0], rep.Salvaged[1]
			if len(complete.Rows) != 9 {
				t.Fatalf("sibling seed's table = %d rows, want all 9", len(complete.Rows))
			}
			for i, row := range complete.Rows {
				if row[0] != float64(i) || row[1] != 1 {
					t.Fatalf("sibling row %d = %v, want [%d 1]", i, row, i)
				}
			}
			if len(complete.Notes) != 1 {
				t.Errorf("sibling table lost its Finish note: %v", complete.Notes)
			}
			if len(prefix.Rows) != 3 {
				t.Fatalf("failed cell salvaged %d rows, want the 3-point prefix: %v", len(prefix.Rows), prefix.Rows)
			}
			for i, row := range prefix.Rows {
				if row[0] != float64(i) || row[1] != 2 {
					t.Fatalf("salvaged row %d = %v, want [%d 2] — hole or zero-filled row", i, row, i)
				}
			}
		})
	}
}

// TestBatchedSalvageContiguousStress sweeps failure position × batch
// size × worker count (with and without points that park on ctx until
// fail-fast cancellation) and asserts every salvaged table is a
// contiguous prefix of the serial table — multi-row points included.
func TestBatchedSalvageContiguousStress(t *testing.T) {
	boom := errors.New("boom")
	for _, points := range []int{5, 9} {
		for failAt := 0; failAt < points; failAt++ {
			for _, batch := range []int{2, 3} {
				for _, workers := range []int{1, 8} {
					for _, park := range []bool{false, true} {
						id := fmt.Sprintf("zz-st-%d-%d-%d-%d-%v", points, failAt, batch, workers, park)
						s := &Sweep{
							ID: id, Description: "stress", Title: "stress",
							Columns: []string{"a", "b"},
							Points:  points,
						}
						s.Point = func(ctx context.Context, seed int64, i int) (PointResult, error) {
							if i == failAt {
								return PointResult{}, boom
							}
							if park && i > failAt {
								<-ctx.Done()
								return PointResult{}, ctx.Err()
							}
							return PointResult{Rows: [][]float64{
								{float64(i), float64(seed)},
								{float64(i) + 0.5, float64(seed)},
							}}, nil
						}
						tempSweep(t, s)
						rep, err := Execute(context.Background(), Options{Concurrency: workers, ShardRows: true, BatchRows: batch, IDs: []string{id}, Seeds: []int64{3}})
						if err == nil {
							t.Fatalf("%s: no error", id)
						}
						for _, sv := range rep.Salvaged {
							if len(sv.Rows)%2 != 0 {
								t.Fatalf("%s: point split across salvage boundary: %v", id, sv.Rows)
							}
							for ri, row := range sv.Rows {
								want := float64(ri / 2)
								if ri%2 == 1 {
									want += 0.5
								}
								if row[0] != want || row[1] != 3 {
									t.Fatalf("%s: salvage row %d = %v, want [%v 3] — non-contiguous", id, ri, row, want)
								}
							}
							if len(sv.Rows)/2 > failAt {
								t.Fatalf("%s: salvaged %d points past the failure at %d", id, len(sv.Rows)/2, failAt)
							}
						}
					}
				}
			}
		}
	}
}

// TestJobPathsAgreeOnFailure: the local pool and a lease holder run a
// job the same way — ComputeJob, then the settle commit — so a sweep
// failing at point 5 of 6 reports the same error, naming the point
// once, and salvages the same 5-row prefix whichever holder ran it,
// one or two points per job or unsharded.
func TestJobPathsAgreeOnFailure(t *testing.T) {
	boom := errors.New("boom")
	s := countingSweep("zz-agree", 6)
	inner := s.Point
	s.Point = func(ctx context.Context, seed int64, i int) (PointResult, error) {
		if i == 5 {
			return PointResult{}, boom
		}
		return inner(ctx, seed, i)
	}
	tempSweep(t, s)
	const want = "experiments: zz-agree (seed 1): point 5/6: boom"

	local := func(workers int) func(*testing.T, RunSpec) (*Report, error) {
		return func(t *testing.T, sp RunSpec) (*Report, error) {
			return Execute(context.Background(), Options{IDs: sp.IDs, ShardRows: sp.ShardRows, BatchRows: sp.BatchRows, Concurrency: workers})
		}
	}
	lease := func(t *testing.T, sp RunSpec) (*Report, error) {
		sched := NewScheduler(SchedulerConfig{LeaseOnly: true})
		defer sched.Close()
		done := make(chan struct{})
		wg := drainLeases(t, sched, 1, done)
		defer func() { close(done); wg.Wait() }()
		h, err := sched.Submit(context.Background(), sp)
		if err != nil {
			t.Fatal(err)
		}
		return h.Report()
	}
	holders := []struct {
		name string
		run  func(*testing.T, RunSpec) (*Report, error)
	}{{"local1", local(1)}, {"local4", local(4)}, {"lease", lease}}
	layouts := []struct {
		name  string
		shard bool
		batch int
	}{{"batch1", true, 1}, {"batch2", true, 2}, {"unsharded", false, 1}}
	for _, lay := range layouts {
		for _, ho := range holders {
			t.Run(lay.name+"/"+ho.name, func(t *testing.T) {
				rep, err := ho.run(t, RunSpec{IDs: []string{"zz-agree"}, ShardRows: lay.shard, BatchRows: lay.batch})
				if err == nil || err.Error() != want {
					t.Fatalf("err = %v, want %q", err, want)
				}
				if len(rep.Salvaged) != 1 {
					t.Fatalf("salvage = %d tables, want 1", len(rep.Salvaged))
				}
				rows := rep.Salvaged[0].Rows
				if len(rows) != 5 {
					t.Fatalf("salvaged %d rows, want the 5-point prefix: %v", len(rows), rows)
				}
				for i, row := range rows {
					if row[0] != float64(i) || row[1] != 1 {
						t.Fatalf("salvaged row %d = %v, want [%d 1]", i, row, i)
					}
				}
			})
		}
	}
}

// TestFailMalformedReport: a lease holder's failure that does not fit
// its job — a *PointError outside the leased batch, or a completed
// prefix of the wrong row arity — never indexes out of range or
// panics in assembly: the failure lands at the batch's first point (or
// its own, when inside the batch) without the malformed rows, and
// still fails the run.
func TestFailMalformedReport(t *testing.T) {
	tempSweep(t, countingSweep("zz-malformed", 6))
	boom := errors.New("boom")
	for _, tc := range []struct {
		err  error
		want string
	}{
		{&PointError{Point: 99, Points: 6, Err: boom}, "point 0/6: point 99/6: boom"},
		{&PointError{Point: -1, Points: 6, Err: boom}, "point 0/6: point -1/6: boom"},
		{&JobError{Err: &PointError{Point: 1, Points: 6, Err: boom}, Done: ExternalResult{Points: []PointResult{Row(1, 2, 3)}}}, "point 1/6: boom"},
	} {
		s := NewScheduler(SchedulerConfig{LeaseOnly: true})
		h, err := s.Submit(context.Background(), RunSpec{IDs: []string{"zz-malformed"}, ShardRows: true, BatchRows: 2})
		if err != nil {
			t.Fatal(err)
		}
		s.TryLease().Fail(tc.err)
		rep, err := h.Report()
		if err == nil || !strings.HasSuffix(err.Error(), tc.want) {
			t.Errorf("Fail(%v): err = %v, want it to end %q", tc.err, err, tc.want)
		}
		if len(rep.Salvaged) != 0 {
			t.Errorf("Fail(%v): salvaged %+v, want nothing", tc.err, rep.Salvaged)
		}
		s.Close()
	}
}

// TestUnshardedCancelMidAxis: an unsharded cell runs as one job over
// its whole axis, and a cancellation arriving mid-axis stops it before
// the next point. Whether the local pool runs the job (the submitter's
// context is cancelled) or a lease holder does (the holder's context is
// cancelled, and it reports Fail), the run fails with
// context.Canceled and salvages the same prefix: the points computed
// before the cancellation. A sharded cell whose one batch spans the
// axis is the same whole-axis job and stops the same way.
func TestUnshardedCancelMidAxis(t *testing.T) {
	const cancelAt = 3
	var cancel context.CancelFunc
	s := countingSweep("zz-cancel", 6)
	inner := s.Point
	s.Point = func(ctx context.Context, seed int64, i int) (PointResult, error) {
		if i == cancelAt {
			cancel()
		}
		return inner(ctx, seed, i)
	}
	tempSweep(t, s)
	spec := RunSpec{IDs: []string{"zz-cancel"}}

	local := func(opts Options) func(*testing.T) (*Report, error) {
		return func(t *testing.T) (*Report, error) {
			var ctx context.Context
			ctx, cancel = context.WithCancel(context.Background())
			defer cancel()
			opts.IDs, opts.Concurrency = spec.IDs, 1
			return Execute(ctx, opts)
		}
	}
	lease := func(t *testing.T) (*Report, error) {
		sched := NewScheduler(SchedulerConfig{LeaseOnly: true})
		defer sched.Close()
		h, err := sched.Submit(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		var holderCtx context.Context
		holderCtx, cancel = context.WithCancel(context.Background())
		defer cancel()
		for {
			lj := sched.TryLease()
			if lj == nil {
				break
			}
			if d := lj.Desc(); d.Point != 0 || d.Count != s.Points {
				t.Fatalf("unsharded cell leased as %s, want one whole-axis job", d)
			}
			res, err := ComputeJob(holderCtx, lj.Desc())
			if err == nil {
				t.Fatal("cancelled job completed")
			}
			var pe *PointError
			if !errors.As(err, &pe) || pe.Point != cancelAt+1 || !errors.Is(err, context.Canceled) {
				t.Fatalf("ComputeJob err = %v, want a cancellation at point %d", err, cancelAt+1)
			}
			if len(res.Points) != cancelAt+1 {
				t.Fatalf("ComputeJob kept %d points, want %d", len(res.Points), cancelAt+1)
			}
			lj.Fail(err)
		}
		return h.Report()
	}
	for _, holder := range []struct {
		name string
		run  func(*testing.T) (*Report, error)
	}{
		{"local1", local(Options{})},
		{"local1-whole-batch", local(Options{ShardRows: true, BatchRows: s.Points})},
		{"lease", lease},
	} {
		t.Run(holder.name, func(t *testing.T) {
			rep, err := holder.run(t)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if len(rep.Results) != 0 || len(rep.Salvaged) != 1 {
				t.Fatalf("results %d, salvaged %d tables; want 0 and the one prefix", len(rep.Results), len(rep.Salvaged))
			}
			rows := rep.Salvaged[0].Rows
			if len(rows) != cancelAt+1 {
				t.Fatalf("salvaged %d rows, want the %d points before the cancellation: %v", len(rows), cancelAt+1, rows)
			}
			for i, row := range rows {
				if row[0] != float64(i) || row[1] != 1 {
					t.Fatalf("salvaged row %d = %v, want [%d 1]", i, row, i)
				}
			}
		})
	}
}
