package experiments

// Lease-path coverage at the scheduler layer: dispatching jobs to
// external holders (the fleet coordinator's pull path) must leave
// submission bytes identical to the local pool's, and every messy
// ending — duplicate completion, abandonment, holder failure,
// submission cancellation with leases outstanding, malformed payloads
// — must resolve through the settle CAS without corrupting slots or
// wedging finalization. This is determinism invariant 9 at its root.
// Run under -race in CI.

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// drainLeases runs a simulated fleet of n holders against the
// scheduler: each loops TryLease → ComputeJob → Complete until done
// closes. It is the in-process equivalent of n llama-worker processes.
func drainLeases(t *testing.T, s *Scheduler, n int, done <-chan struct{}) *sync.WaitGroup {
	t.Helper()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				lj := s.TryLease()
				if lj == nil {
					time.Sleep(time.Millisecond)
					continue
				}
				res, err := ComputeJob(context.Background(), lj.Desc())
				if err != nil {
					lj.Fail(err)
					continue
				}
				if err := lj.Complete(res); err != nil {
					t.Errorf("complete %s: %v", lj.Desc(), err)
				}
			}
		}()
	}
	return &wg
}

// TestLeaseOnlyBitIdentity: a scheduler with no local workers, drained
// entirely through TryLease by 1..4 simulated holders, produces bytes
// identical to the serial reference for sharded and unsharded specs.
func TestLeaseOnlyBitIdentity(t *testing.T) {
	spec := RunSpec{IDs: []string{"fig15", "tab1"}, Seeds: []int64{1, 2}}
	want := tablesCSV(t, Options{IDs: spec.IDs, Seeds: spec.Seeds, Concurrency: 1})
	for _, holders := range []int{1, 4} {
		for _, shard := range []bool{false, true} {
			s := NewScheduler(SchedulerConfig{LeaseOnly: true})
			if s.Workers() != 0 {
				t.Fatalf("LeaseOnly scheduler has %d local workers", s.Workers())
			}
			done := make(chan struct{})
			wg := drainLeases(t, s, holders, done)
			sp := spec
			sp.ShardRows = shard
			h, err := s.Submit(context.Background(), sp)
			if err != nil {
				t.Fatal(err)
			}
			if got := handleCSV(t, h); got != want {
				t.Errorf("holders %d shard %v: lease-drained bytes differ from serial run", holders, shard)
			}
			close(done)
			wg.Wait()
			s.Close()
		}
	}
}

// TestLeaseHybridBitIdentity: local pool workers and lease holders
// draining the same submission concurrently still reproduce the serial
// bytes — the settle CAS arbitrates whoever gets each job first.
func TestLeaseHybridBitIdentity(t *testing.T) {
	spec := RunSpec{IDs: []string{"fig15"}, Seeds: []int64{1, 2, 3}, ShardRows: true}
	want := tablesCSV(t, Options{IDs: spec.IDs, Seeds: spec.Seeds, Concurrency: 1})
	s := NewScheduler(SchedulerConfig{Workers: 2})
	defer s.Close()
	done := make(chan struct{})
	wg := drainLeases(t, s, 2, done)
	h, err := s.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := handleCSV(t, h); got != want {
		t.Error("hybrid local+lease bytes differ from serial run")
	}
	close(done)
	wg.Wait()
}

// leaseAll drains every currently queued job of a lease-only scheduler
// into held leases.
func leaseAll(s *Scheduler) []*LeasedJob {
	var out []*LeasedJob
	for {
		lj := s.TryLease()
		if lj == nil {
			return out
		}
		out = append(out, lj)
	}
}

// TestLeaseDuplicateCompleteDropped: the same job completed through two
// holders (the reassignment shape: lease expires, job re-granted, the
// presumed-dead holder answers late) keeps the first writer's rows and
// drops the second without error; the submission still finishes with
// the reference bytes and accounts every job exactly once.
func TestLeaseDuplicateCompleteDropped(t *testing.T) {
	spec := RunSpec{IDs: []string{"tab1"}, Seeds: []int64{1}, ShardRows: true, BatchRows: 2}
	want := tablesCSV(t, Options{IDs: spec.IDs, Seeds: spec.Seeds, Concurrency: 1})
	s := NewScheduler(SchedulerConfig{LeaseOnly: true})
	defer s.Close()
	h, err := s.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	leases := leaseAll(s)
	if len(leases) == 0 {
		t.Fatal("no jobs leased")
	}
	// First holder "dies": its jobs are abandoned and re-granted.
	victim := leases[0]
	victim.Abandon()
	regrant := s.TryLease()
	if regrant == nil {
		t.Fatal("abandoned job was not requeued")
	}
	if victim.Desc() != regrant.Desc() {
		t.Fatalf("requeued desc %s != abandoned desc %s", regrant.Desc(), victim.Desc())
	}
	res, err := ComputeJob(context.Background(), regrant.Desc())
	if err != nil {
		t.Fatal(err)
	}
	if err := regrant.Complete(res); err != nil {
		t.Fatal(err)
	}
	// The late duplicate from the presumed-dead holder is dropped silently.
	if err := victim.Complete(res); err != nil {
		t.Errorf("late duplicate complete: %v, want silent drop", err)
	}
	if !victim.Settled() {
		t.Error("job not settled after completion")
	}
	for _, lj := range leases[1:] {
		r, err := ComputeJob(context.Background(), lj.Desc())
		if err != nil {
			t.Fatal(err)
		}
		if err := lj.Complete(r); err != nil {
			t.Fatal(err)
		}
	}
	if got := handleCSV(t, h); got != want {
		t.Error("bytes differ after duplicate completion")
	}
	p := h.Progress()
	if p.DoneJobs != p.TotalJobs {
		t.Errorf("progress %d/%d after duplicate completion", p.DoneJobs, p.TotalJobs)
	}
}

// TestLeaseLateCompleteBeatsRequeue: an expired lease still forwards
// its rows. The holder's job is abandoned back onto the queue, then the
// presumed-dead holder completes it before anyone re-leases the copy.
// The late completion settles the job, the submission finishes with
// the reference bytes, and the stale requeued copy is never dealt.
func TestLeaseLateCompleteBeatsRequeue(t *testing.T) {
	spec := RunSpec{IDs: []string{"tab1"}, Seeds: []int64{1}}
	want := tablesCSV(t, Options{IDs: spec.IDs, Seeds: spec.Seeds, Concurrency: 1})
	s := NewScheduler(SchedulerConfig{LeaseOnly: true})
	defer s.Close()
	h, err := s.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	lj := s.TryLease()
	if lj == nil {
		t.Fatal("no job leased")
	}
	res, err := ComputeJob(context.Background(), lj.Desc())
	if err != nil {
		t.Fatal(err)
	}
	lj.Abandon()
	if err := lj.Complete(res); err != nil {
		t.Fatalf("late complete: %v", err)
	}
	select {
	case <-h.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("submission did not finish after the late completion")
	}
	if again := s.TryLease(); again != nil {
		t.Errorf("stale requeued copy dealt again: %s", again.Desc())
	}
	if got := handleCSV(t, h); got != want {
		t.Error("bytes differ after a late completion")
	}
}

// TestLeaseFailFailsSubmission: a holder's compute failure reported
// through Fail fails the submission fast, like a local worker error.
func TestLeaseFailFailsSubmission(t *testing.T) {
	s := NewScheduler(SchedulerConfig{LeaseOnly: true})
	defer s.Close()
	h, err := s.Submit(context.Background(), RunSpec{IDs: []string{"tab1"}, Seeds: []int64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	leases := leaseAll(s)
	if len(leases) != 2 {
		t.Fatalf("leased %d jobs, want 2", len(leases))
	}
	leases[0].Fail(errors.New("varactor bank caught fire"))
	for _, lj := range leases[1:] {
		res, err := ComputeJob(context.Background(), lj.Desc())
		if err != nil {
			t.Fatal(err)
		}
		_ = lj.Complete(res) // settle so the submission can finalize
	}
	if _, err := h.Report(); err == nil || !strings.Contains(err.Error(), "caught fire") {
		t.Errorf("report err = %v, want the holder's failure", err)
	}
}

// TestLeaseCancelSettlesOutstanding: cancelling a submission with
// leases outstanding finalizes promptly — the run must not wait out a
// lease TTL for holders that will never answer — and a completion
// arriving after cancellation is dropped without corrupting anything.
func TestLeaseCancelSettlesOutstanding(t *testing.T) {
	s := NewScheduler(SchedulerConfig{LeaseOnly: true})
	defer s.Close()
	h, err := s.Submit(context.Background(), RunSpec{IDs: []string{"fig15"}, Seeds: []int64{1}, ShardRows: true})
	if err != nil {
		t.Fatal(err)
	}
	leases := leaseAll(s)
	if len(leases) == 0 {
		t.Fatal("no jobs leased")
	}
	h.Cancel()
	finished := make(chan struct{})
	go func() { <-h.Done(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled submission with outstanding leases did not finalize")
	}
	if _, err := h.Report(); !errors.Is(err, context.Canceled) {
		t.Errorf("report err = %v, want context.Canceled", err)
	}
	// Post-cancel endings of the orphaned leases are all safe no-ops.
	res, cerr := ComputeJob(context.Background(), leases[0].Desc())
	if cerr != nil {
		t.Fatal(cerr)
	}
	if err := leases[0].Complete(res); err != nil {
		t.Errorf("post-cancel complete: %v, want silent drop", err)
	}
	if len(leases) > 1 {
		leases[1].Abandon() // must settle, not recirculate, on a dead run
		if !leases[1].Settled() {
			t.Error("post-cancel abandon left job unsettled")
		}
	}
}

// TestLeaseCompleteValidates: malformed completion payloads are
// rejected before the settle CAS — the job stays completable by an
// honest holder and the final bytes match the reference.
func TestLeaseCompleteValidates(t *testing.T) {
	spec := RunSpec{IDs: []string{"tab1"}, Seeds: []int64{1}, ShardRows: true, BatchRows: 3}
	want := tablesCSV(t, Options{IDs: spec.IDs, Seeds: spec.Seeds, Concurrency: 1})
	s := NewScheduler(SchedulerConfig{LeaseOnly: true})
	defer s.Close()
	h, err := s.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	leases := leaseAll(s)
	lj := leases[0]
	good, err := ComputeJob(context.Background(), lj.Desc())
	if err != nil {
		t.Fatal(err)
	}
	if err := lj.Complete(ExternalResult{}); err == nil {
		t.Error("empty payload accepted for a sharded job")
	}
	short := ExternalResult{Points: good.Points[:len(good.Points)-1]}
	if err := lj.Complete(short); err == nil {
		t.Error("short batch accepted")
	}
	mangled := ExternalResult{Points: make([]PointResult, len(good.Points))}
	copy(mangled.Points, good.Points)
	mangled.Points[0] = PointResult{Rows: [][]float64{{1}}} // wrong arity
	if err := lj.Complete(mangled); err == nil {
		t.Error("wrong-arity row accepted")
	}
	if lj.Settled() {
		t.Fatal("rejected payloads settled the job")
	}
	if err := lj.Complete(good); err != nil {
		t.Fatalf("honest completion after rejections: %v", err)
	}
	for _, rest := range leases[1:] {
		r, err := ComputeJob(context.Background(), rest.Desc())
		if err != nil {
			t.Fatal(err)
		}
		if err := rest.Complete(r); err != nil {
			t.Fatal(err)
		}
	}
	if got := handleCSV(t, h); got != want {
		t.Error("bytes differ after payload-validation round trip")
	}
}

// TestComputeJobValidatesDesc: descs outside the registered axis (a
// confused or stale worker) error instead of panicking.
func TestComputeJobValidatesDesc(t *testing.T) {
	ctx := context.Background()
	if _, err := ComputeJob(ctx, JobDesc{ID: "no-such", Count: 1}); err == nil {
		t.Error("unknown sweep accepted")
	}
	if _, err := ComputeJob(ctx, JobDesc{ID: "tab1", Point: 10000, Count: 5}); err == nil {
		t.Error("out-of-axis batch accepted")
	}
	// Point+Count overflows int for these; a hostile or corrupt lease
	// must still be refused, not panic in makeslice or the point index.
	if _, err := ComputeJob(ctx, JobDesc{ID: "fig16", Point: 1, Count: math.MaxInt}); err == nil {
		t.Error("overflowing count accepted")
	}
	if _, err := ComputeJob(ctx, JobDesc{ID: "fig16", Point: math.MaxInt, Count: 1}); err == nil {
		t.Error("overflowing point accepted")
	}
	if _, err := ComputeJob(ctx, JobDesc{ID: "no-such"}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestLeaseRoundTripEncoding: the points of a whole-axis job, folded by
// AssembleCell (the fleet worker's persistence path), render exactly the
// table the serial path computes; the fleet package's wire tests guard
// the string encoding in between. A range short of the whole axis is
// not a cell.
func TestLeaseRoundTripEncoding(t *testing.T) {
	ctx := context.Background()
	d := JobDesc{ID: "tab1", Seed: 1, Count: len(Table1Biases)}
	res, err := ComputeJob(ctx, d)
	if err != nil {
		t.Fatal(err)
	}
	cell, ok := AssembleCell(d, res.Points)
	if !ok || len(cell.Rows) == 0 {
		t.Fatal("whole-axis job assembled no table")
	}
	serial, err := Run(ctx, "tab1", 1)
	if err != nil {
		t.Fatal(err)
	}
	var got, want bytes.Buffer
	if err := cell.Render(&got); err != nil {
		t.Fatal(err)
	}
	if err := serial.Render(&want); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("assembled cell differs from the serial table:\n%s\nwant:\n%s", got.String(), want.String())
	}
	if _, ok := AssembleCell(JobDesc{ID: "tab1", Seed: 1, Count: 1}, res.Points[:1]); ok {
		t.Error("a one-point range of tab1 assembled as a cell")
	}
}
