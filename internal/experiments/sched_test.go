package experiments

// Scheduler-level coverage: concurrent submissions sharing one pool
// must be byte-equivalent to sequential one-shot runs (the contract
// llama-serve builds invariant 7 on), Submit/Cancel cycles must not
// leak goroutines, and submission validation must fail fast. Run under
// -race in CI.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/llama-surface/llama/internal/store"
)

// tablesCSV renders the one-shot reference bytes for a spec: the serial
// (Concurrency 1, unsharded) engine run — what `llama-bench -format
// csv` prints for the same selection.
func tablesCSV(t *testing.T, opts Options) string {
	t.Helper()
	rep, err := Execute(context.Background(), opts)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	var buf bytes.Buffer
	if err := rep.WriteTables(&buf, "csv"); err != nil {
		t.Fatalf("reference render: %v", err)
	}
	return buf.String()
}

// handleCSV waits for a submission and renders its tables as CSV.
func handleCSV(t *testing.T, h *RunHandle) string {
	t.Helper()
	rep, err := h.Report()
	if err != nil {
		t.Fatalf("submission: %v", err)
	}
	var buf bytes.Buffer
	if err := rep.WriteTables(&buf, "csv"); err != nil {
		t.Fatalf("submission render: %v", err)
	}
	return buf.String()
}

// TestConcurrentSubmissionsMatchSequential is the scheduler's
// determinism contract: two overlapping Submits sharing one pool
// produce exactly the bytes two sequential llama-bench runs produce,
// for workers {1, 8} × shard on/off. Their jobs interleave in one
// queue, so a clean pass certifies that slot-indexed collection keeps
// submissions independent.
func TestConcurrentSubmissionsMatchSequential(t *testing.T) {
	ctx := context.Background()
	specA := RunSpec{IDs: []string{"fig2a", "tab1"}, Seeds: []int64{1, 2}}
	specB := RunSpec{IDs: []string{"fig12", "fig2b"}, Seeds: []int64{3, 4}}
	wantA := tablesCSV(t, Options{IDs: specA.IDs, Seeds: specA.Seeds, Concurrency: 1})
	wantB := tablesCSV(t, Options{IDs: specB.IDs, Seeds: specB.Seeds, Concurrency: 1})
	for _, workers := range []int{1, 8} {
		for _, shard := range []bool{false, true} {
			s := NewScheduler(SchedulerConfig{Workers: workers})
			sA, sB := specA, specB
			sA.ShardRows, sB.ShardRows = shard, shard
			hA, err := s.Submit(ctx, sA)
			if err != nil {
				t.Fatalf("workers %d shard %v: submit A: %v", workers, shard, err)
			}
			hB, err := s.Submit(ctx, sB)
			if err != nil {
				t.Fatalf("workers %d shard %v: submit B: %v", workers, shard, err)
			}
			gotA, gotB := handleCSV(t, hA), handleCSV(t, hB)
			if gotA != wantA {
				t.Errorf("workers %d shard %v: submission A bytes differ from sequential run", workers, shard)
			}
			if gotB != wantB {
				t.Errorf("workers %d shard %v: submission B bytes differ from sequential run", workers, shard)
			}
			s.Close()
		}
	}
}

// TestSubmissionCancelIndependent: cancelling one submission must not
// perturb a concurrent one — the survivor's bytes still match the
// sequential reference.
func TestSubmissionCancelIndependent(t *testing.T) {
	ctx := context.Background()
	want := tablesCSV(t, Options{IDs: []string{"tab1"}, Seeds: []int64{1, 2}, Concurrency: 1})
	s := NewScheduler(SchedulerConfig{Workers: 4})
	defer s.Close()
	victim, err := s.Submit(ctx, RunSpec{IDs: []string{"fig15"}, Seeds: []int64{1, 2, 3}, ShardRows: true})
	if err != nil {
		t.Fatal(err)
	}
	survivor, err := s.Submit(ctx, RunSpec{IDs: []string{"tab1"}, Seeds: []int64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	victim.Cancel()
	if _, err := victim.Report(); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled submission: err = %v, want context.Canceled", err)
	}
	if got := handleCSV(t, survivor); got != want {
		t.Error("survivor bytes differ after neighbour cancellation")
	}
	if !victim.Progress().Finished {
		t.Error("cancelled handle not marked finished")
	}
}

// TestSchedulerGoroutineBound is the leak bound the service relies on:
// many Submit/cancel cycles against one scheduler leave no stragglers —
// during the churn the count stays near baseline + pool, and after
// Close it settles back to the pre-scheduler level. Run under -race.
func TestSchedulerGoroutineBound(t *testing.T) {
	before := runtime.NumGoroutine()
	const workers = 4
	s := NewScheduler(SchedulerConfig{Workers: workers})
	ctx := context.Background()
	for i := 0; i < 40; i++ {
		h, err := s.Submit(ctx, RunSpec{IDs: []string{"fig2a"}, Seeds: []int64{1, 2}})
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			h.Cancel()
		}
		<-h.Done()
	}
	// Mid-life: only the pool (plus a little runtime slack) may remain.
	if n := runtime.NumGoroutine(); n > before+workers+8 {
		t.Errorf("goroutines during churn: before=%d now=%d — per-submission leak", before, n)
	}
	s.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: before=%d after close=%d — scheduler leak", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSubmissionContextReleased: a finished submission releases its
// derived context, so a long-lived cancellable parent (Execute's
// caller, a result request) does not keep one child per finished run.
// It holds for a submission that queued jobs and for a resumed one the
// store answers without any.
func TestSubmissionContextReleased(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	parent, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := NewScheduler(SchedulerConfig{Workers: 2, Store: st})
	defer s.Close()
	for _, resume := range []bool{false, true} {
		h, err := s.Submit(parent, RunSpec{IDs: []string{"tab1"}, Seeds: []int64{1}, Resume: resume})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Report(); err != nil {
			t.Fatalf("resume %v: %v", resume, err)
		}
		if p := h.Progress(); resume && p.TotalJobs != 0 {
			t.Fatalf("resumed submission queued %d jobs, want 0", p.TotalJobs)
		}
		if h.sub.ctx.Err() == nil {
			t.Errorf("resume %v: submission context still live after Report", resume)
		}
	}
	if parent.Err() != nil {
		t.Error("releasing a submission's context cancelled its parent")
	}
}

// TestSubmitValidation: bad specs fail fast, before any job runs.
func TestSubmitValidation(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1})
	defer s.Close()
	if _, err := s.Submit(context.Background(), RunSpec{IDs: []string{"no-such-id"}}); err == nil || !strings.Contains(err.Error(), "unknown id") {
		t.Errorf("unknown id: err = %v", err)
	}
	if _, err := s.Submit(context.Background(), RunSpec{IDs: []string{"tab1"}, Resume: true}); err == nil || !strings.Contains(err.Error(), "store") {
		t.Errorf("resume without store: err = %v", err)
	}
}

// TestSubmitAfterClose: a closed scheduler refuses work with the typed
// sentinel instead of wedging the submitter.
func TestSubmitAfterClose(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1})
	s.Close()
	s.Close() // idempotent
	if _, err := s.Submit(context.Background(), RunSpec{IDs: []string{"tab1"}}); !errors.Is(err, ErrSchedulerClosed) {
		t.Errorf("submit after close: err = %v, want ErrSchedulerClosed", err)
	}
}

// TestResolveIDsEmptyAndDuplicates: an explicitly empty selection (the
// decoded-JSON `"ids": []` shape) means everything — not a silent
// zero-experiment run — and duplicated IDs collapse to one cell so no
// spec can compute or emit a table twice.
func TestResolveIDsEmptyAndDuplicates(t *testing.T) {
	all, err := resolveIDs([]string{})
	if err != nil {
		t.Fatal(err)
	}
	if want := IDs(); len(all) != len(want) {
		t.Errorf("empty selection resolved to %d ids, want all %d", len(all), len(want))
	}
	dedup, err := resolveIDs([]string{"tab1", "fig2a", "tab1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(dedup) != 2 || dedup[0] != "fig2a" || dedup[1] != "tab1" {
		t.Errorf("deduped selection = %v, want [fig2a tab1]", dedup)
	}
	s := NewScheduler(SchedulerConfig{Workers: 2})
	defer s.Close()
	h, err := s.Submit(context.Background(), RunSpec{IDs: []string{"tab1", "tab1"}})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := h.Report()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 1 {
		t.Errorf("duplicated spec produced %d tables, want 1", len(rep.Results))
	}
}

// TestSeedsDeduplicated: a repeated seed runs once, at its first
// appearance — it must not compute or persist the same cell twice, nor
// report a replication over the duplicate — on both the one-shot and
// the scheduler path.
func TestSeedsDeduplicated(t *testing.T) {
	rep, err := Execute(context.Background(), Options{IDs: []string{"tab1"}, Seeds: []int64{1, 1}, StoreDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ComputedCells != 1 || rep.PersistedCells != 1 || len(rep.Seeds) != 1 || rep.Replicated != nil {
		t.Errorf("seeds {1,1}: computed %d, persisted %d, seeds %v, %d replicated; want 1, 1, [1], none",
			rep.ComputedCells, rep.PersistedCells, rep.Seeds, len(rep.Replicated))
	}

	ids := []string{"fig2a", "tab1"}
	dup, err := Execute(context.Background(), Options{IDs: ids, Seeds: []int64{2, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Execute(context.Background(), Options{IDs: ids, Seeds: []int64{2, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(dup.Seeds) != "[2 1]" || dup.ComputedCells != want.ComputedCells ||
		len(dup.Results) != len(want.Results) || len(dup.Replicated) != len(want.Replicated) {
		t.Fatalf("seeds {2,1,2}: seeds %v, %d cells, %d tables, %d replicated; want [2 1], %d, %d, %d",
			dup.Seeds, dup.ComputedCells, len(dup.Results), len(dup.Replicated),
			want.ComputedCells, len(want.Results), len(want.Replicated))
	}
	for i := range want.Results {
		if !sameResult(dup.Results[i], want.Results[i]) {
			t.Errorf("%s: seeds {2,1,2} table differs from {2,1}", want.Results[i].ID)
		}
	}
	for i := range want.Replicated {
		if !sameReplicated(dup.Replicated[i], want.Replicated[i]) {
			t.Errorf("%s: seeds {2,1,2} replication differs from {2,1}", want.Replicated[i].ID)
		}
	}

	s := NewScheduler(SchedulerConfig{Workers: 2})
	defer s.Close()
	h, err := s.Submit(context.Background(), RunSpec{IDs: []string{"tab1"}, Seeds: []int64{2, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Spec().Seeds; fmt.Sprint(got) != "[2 1]" {
		t.Errorf("RunHandle.Spec().Seeds = %v, want [2 1]", got)
	}
	if _, err := h.Report(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineResumeRequiresStore: the one-shot guard matching the CLI
// check — Resume with no StoreDir is a configuration error, not a
// silent no-op.
func TestEngineResumeRequiresStore(t *testing.T) {
	if _, err := Execute(context.Background(), Options{Resume: true}); err == nil || !strings.Contains(err.Error(), "Options.StoreDir") {
		t.Errorf("err = %v, want Options.StoreDir requirement", err)
	}
}

// TestHandleProgressAndSpec: the handle reports the normalized spec and
// monotone progress that ends complete.
func TestHandleProgressAndSpec(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 2})
	defer s.Close()
	h, err := s.Submit(context.Background(), RunSpec{IDs: []string{"tab1", "fig2a"}, Seeds: nil})
	if err != nil {
		t.Fatal(err)
	}
	spec := h.Spec()
	if want := []string{"fig2a", "tab1"}; len(spec.IDs) != 2 || spec.IDs[0] != want[0] || spec.IDs[1] != want[1] {
		t.Errorf("normalized IDs = %v, want %v", spec.IDs, want)
	}
	if len(spec.Seeds) != 1 || spec.Seeds[0] != 1 {
		t.Errorf("defaulted seeds = %v, want [1]", spec.Seeds)
	}
	if _, err := h.Report(); err != nil {
		t.Fatal(err)
	}
	p := h.Progress()
	if !p.Finished || p.DoneJobs != p.TotalJobs || p.TotalCells != 2 {
		t.Errorf("final progress = %+v, want finished with all jobs done over 2 cells", p)
	}

	// Batching only groups sweep points: an unsharded spec runs with
	// batch 1 and must record 1 in its spec, report and cell metadata,
	// while a sharded one keeps the size it asked for. Each case gets
	// its own store, so the cell's batch is the one its run recorded.
	for _, tc := range []struct {
		shard bool
		want  int
	}{{false, 1}, {true, 4}} {
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		ss := NewScheduler(SchedulerConfig{Workers: 2, Store: st})
		h, err := ss.Submit(context.Background(), RunSpec{IDs: []string{"fig16"}, ShardRows: tc.shard, BatchRows: 4})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := h.Report()
		if err != nil {
			t.Fatal(err)
		}
		rec, err := st.Get("fig16", 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := [3]int{h.Spec().BatchRows, rep.BatchRows, rec.Meta.BatchRows}; got != [3]int{tc.want, tc.want, tc.want} {
			t.Errorf("shard=%v batch 4: spec/report/cell batch = %v, want all %d", tc.shard, got, tc.want)
		}
		// A second run of another shape computes the same table: the
		// store confirms the stored cell and keeps the first run's Meta.
		h2, err := ss.Submit(context.Background(), RunSpec{IDs: []string{"fig16"}, ShardRows: !tc.shard, BatchRows: 2})
		if err != nil {
			t.Fatal(err)
		}
		rep2, err := h2.Report()
		if err != nil {
			t.Fatal(err)
		}
		again, err := st.Get("fig16", 1)
		if err != nil {
			t.Fatal(err)
		}
		if rep2.PersistedCells != 1 || again.Meta != rec.Meta {
			t.Errorf("shard=%v: equal second run persisted %d cell(s), Meta %+v, want 1 and the first run's %+v",
				tc.shard, rep2.PersistedCells, again.Meta, rec.Meta)
		}
		ss.Close()
	}
}

// TestConcurrentSubmitStress hammers one scheduler from many
// goroutines to give -race a fair shot at the registry/queue paths.
func TestConcurrentSubmitStress(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 4})
	defer s.Close()
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h, err := s.Submit(context.Background(), RunSpec{IDs: []string{"tab1"}, Seeds: []int64{int64(i + 1)}})
			if err != nil {
				errs[i] = err
				return
			}
			_, errs[i] = h.Report()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("submitter %d: %v", i, err)
		}
	}
}

// blockingSweep is an n-point counting sweep whose point 0 closes
// started and then waits for release, so a test can act while a job of
// the sweep is in flight on a worker.
func blockingSweep(id string, n int, started, release chan struct{}) *Sweep {
	s := countingSweep(id, n)
	inner := s.Point
	s.Point = func(ctx context.Context, seed int64, i int) (PointResult, error) {
		if i == 0 {
			close(started)
			<-release
		}
		return inner(ctx, seed, i)
	}
	return s
}

// TestCloseMidRunReportsClosed: a submission Close stops is reported as
// stopped, never as a success with tables missing. Report returns
// ErrSchedulerClosed, the cell completed before Close is persisted and
// kept in the report, and an interrupted cell's completed prefix is
// salvaged. It holds for a local pool worker caught mid-job and for a
// lease-only scheduler with one leased job completed and one still out.
func TestCloseMidRunReportsClosed(t *testing.T) {
	ctx := context.Background()
	t.Run("local", func(t *testing.T) {
		started, release := make(chan struct{}), make(chan struct{})
		tempSweep(t, countingSweep("zz-close-a", 1))
		tempSweep(t, blockingSweep("zz-close-b", 3, started, release))
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		s := NewScheduler(SchedulerConfig{Workers: 1, Store: st})
		defer s.Close()
		h, err := s.Submit(ctx, RunSpec{IDs: []string{"zz-close-a", "zz-close-b"}, ShardRows: true})
		if err != nil {
			t.Fatal(err)
		}
		<-started // zz-close-a is done; zz-close-b's first job is in flight
		closed := make(chan struct{})
		go func() { s.Close(); close(closed) }()
		// Release the job once the cancellation has abandoned the other
		// two: zz-close-a's job and those two have settled.
		for h.Progress().DoneJobs != 3 {
			time.Sleep(time.Millisecond)
		}
		close(release)
		<-closed
		rep, err := h.Report()
		if !errors.Is(err, ErrSchedulerClosed) {
			t.Fatalf("err = %v, want ErrSchedulerClosed", err)
		}
		if len(rep.Results) != 1 || rep.Results[0].ID != "zz-close-a" {
			t.Errorf("results = %d tables, want the completed zz-close-a", len(rep.Results))
		}
		if len(rep.Salvaged) != 1 || len(rep.Salvaged[0].Rows) != 1 {
			t.Errorf("salvaged %+v, want zz-close-b's one-row prefix", rep.Salvaged)
		}
		checkClosedStore(t, st, rep, "zz-close-a", "zz-close-b")
	})
	t.Run("lease", func(t *testing.T) {
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		s := NewScheduler(SchedulerConfig{LeaseOnly: true, Store: st})
		defer s.Close()
		h, err := s.Submit(ctx, RunSpec{IDs: []string{"tab1"}, Seeds: []int64{1, 2}})
		if err != nil {
			t.Fatal(err)
		}
		done, out := s.TryLease(), s.TryLease()
		res, err := ComputeJob(ctx, done.Desc())
		if err != nil {
			t.Fatal(err)
		}
		if err := done.Complete(res); err != nil {
			t.Fatal(err)
		}
		s.Close()
		rep, err := h.Report()
		if !errors.Is(err, ErrSchedulerClosed) {
			t.Fatalf("err = %v, want ErrSchedulerClosed", err)
		}
		if len(rep.Results) != 0 || len(rep.Salvaged) != 1 || rep.Salvaged[0].ID != "tab1" {
			t.Errorf("results %d, salvaged %d tables; want 0 and the completed seed-1 table", len(rep.Results), len(rep.Salvaged))
		}
		checkClosedStore(t, st, rep, "tab1", "")
		// The holder still out reports back after Close: dropped quietly.
		late, err := ComputeJob(ctx, out.Desc())
		if err != nil {
			t.Fatal(err)
		}
		if err := out.Complete(late); err != nil {
			t.Errorf("late complete after Close: %v", err)
		}
		if _, err := st.Get("tab1", out.Desc().Seed); !store.IsNotFound(err) {
			t.Errorf("late completion after Close persisted a cell: %v", err)
		}
	})
}

// checkClosedStore asserts that a closed run persisted exactly the
// completed cell done (seed 1) and not the interrupted one, if named.
func checkClosedStore(t *testing.T, st *store.Store, rep *Report, done, interrupted string) {
	t.Helper()
	if rep.PersistedCells != 1 {
		t.Errorf("persisted %d cells, want the one completed before Close", rep.PersistedCells)
	}
	if _, err := st.Get(done, 1); err != nil {
		t.Errorf("completed cell %s not persisted: %v", done, err)
	}
	if interrupted == "" {
		return
	}
	if _, err := st.Get(interrupted, 1); !store.IsNotFound(err) {
		t.Errorf("interrupted cell %s: Get err = %v, want not found", interrupted, err)
	}
}

// TestRunErrorIsFirstCause pins the run error policy: the first cause
// that stopped the submission wins. Cancel reports context.Canceled, a
// parent deadline context.DeadlineExceeded, and a failing point its
// *PointError even when a Cancel or the parent's cancellation follows
// it before the run finalizes.
func TestRunErrorIsFirstCause(t *testing.T) {
	t.Run("cancel", func(t *testing.T) {
		s := NewScheduler(SchedulerConfig{LeaseOnly: true})
		defer s.Close()
		h, err := s.Submit(context.Background(), RunSpec{IDs: []string{"tab1"}})
		if err != nil {
			t.Fatal(err)
		}
		h.Cancel()
		if _, err := h.Report(); !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	})
	t.Run("deadline", func(t *testing.T) {
		s := NewScheduler(SchedulerConfig{LeaseOnly: true})
		defer s.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		defer cancel()
		h, err := s.Submit(ctx, RunSpec{IDs: []string{"tab1"}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Report(); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("err = %v, want context.DeadlineExceeded", err)
		}
	})
	boom := errors.New("boom")
	for _, then := range []string{"cancel", "parent"} {
		t.Run("fail-then-"+then, func(t *testing.T) {
			started, release := make(chan struct{}), make(chan struct{})
			s := blockingSweep("zz-cause", 2, started, release)
			inner := s.Point
			s.Point = func(ctx context.Context, seed int64, i int) (PointResult, error) {
				if i == 1 {
					return PointResult{}, boom
				}
				return inner(ctx, seed, i)
			}
			tempSweep(t, s)
			sched := NewScheduler(SchedulerConfig{Workers: 2})
			defer sched.Close()
			parent, cancel := context.WithCancel(context.Background())
			defer cancel()
			h, err := sched.Submit(parent, RunSpec{IDs: []string{"zz-cause"}, ShardRows: true})
			if err != nil {
				t.Fatal(err)
			}
			<-started
			<-h.sub.ctx.Done() // point 1 failed while point 0 is in flight
			if then == "cancel" {
				h.Cancel()
			} else {
				cancel()
			}
			close(release)
			_, err = h.Report()
			var pe *PointError
			if !errors.As(err, &pe) || pe.Point != 1 || !errors.Is(err, boom) {
				t.Errorf("err = %v, want the *PointError of point 1", err)
			}
		})
	}
}
