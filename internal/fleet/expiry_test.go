package fleet

// Lease-expiry clock edges, driven deterministically by the simclock:
// a heartbeat arriving exactly at the deadline keeps the lease (expiry
// is strictly after), a reassignment racing the original holder's
// completion resolves to exactly one writer, and a job survives two
// consecutive holder deaths. Real-time sleeps would make these edges
// racy; the simulated clock makes them exact.

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/llama-surface/llama/internal/experiments"
	"github.com/llama-surface/llama/internal/simclock"
)

// simCoordinator builds a lease-only scheduler and a coordinator whose
// clock is the simclock projected onto a fixed base instant.
func simCoordinator(t *testing.T, ttl time.Duration) (*experiments.Scheduler, *Coordinator, *simclock.Clock) {
	t.Helper()
	sched := experiments.NewScheduler(experiments.SchedulerConfig{LeaseOnly: true})
	t.Cleanup(sched.Close)
	clk := simclock.New()
	base := time.Unix(1_700_000_000, 0)
	c, err := NewCoordinator(Config{
		Sched: sched,
		TTL:   ttl,
		Now:   func() time.Time { return clk.Time(base) },
		Logf:  t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sched, c, clk
}

// submitCell queues one unsharded cell (tab1, one seed) — a single job
// covering the whole axis — and returns its handle.
func submitCell(t *testing.T, sched *experiments.Scheduler) *experiments.RunHandle {
	t.Helper()
	h, err := sched.Submit(context.Background(), experiments.RunSpec{IDs: []string{"tab1"}, Seeds: []int64{1}})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// finishRun completes the handle's report and fails the test on error.
func finishRun(t *testing.T, h *experiments.RunHandle) {
	t.Helper()
	if _, err := h.Report(); err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestHeartbeatExactlyAtDeadline: the deadline instant itself is still
// alive — expiry is now.After(deadline), not now >= deadline — so a
// heartbeat landing exactly on it extends the lease, and the first
// instant past it kills the lease.
func TestHeartbeatExactlyAtDeadline(t *testing.T) {
	const ttl = 10 * time.Second
	sched, c, clk := simCoordinator(t, ttl)
	h := submitCell(t, sched)
	g, ok := c.Lease("edge-worker")
	if !ok {
		t.Fatal("no lease granted")
	}

	clk.RunFor(ttl) // exactly the deadline
	c.Reap()
	if err := c.Heartbeat(g.ID); err != nil {
		t.Fatalf("heartbeat exactly at deadline: %v, want lease kept", err)
	}
	if st := c.Stats(); st.Expired != 0 || st.Live != 1 {
		t.Fatalf("stats after at-deadline heartbeat = %+v, want 1 live, 0 expired", st)
	}

	clk.RunFor(ttl) // exactly the extended deadline: still alive
	if err := c.Heartbeat(g.ID); err != nil {
		t.Fatalf("heartbeat at extended deadline: %v", err)
	}

	clk.RunFor(ttl + time.Nanosecond) // one instant past: dead
	c.Reap()
	if err := c.Heartbeat(g.ID); !errors.Is(err, ErrLeaseExpired) {
		t.Fatalf("heartbeat past deadline: %v, want ErrLeaseExpired", err)
	}
	if st := c.Stats(); st.Expired != 1 || st.Live != 0 {
		t.Fatalf("stats after expiry = %+v, want 1 expired, 0 live", st)
	}

	// The job went back on the queue: the next lease call gets it.
	g2, ok := c.Lease("edge-worker-2")
	if !ok {
		t.Fatal("expired job was not re-grantable")
	}
	if g2.Desc != g.Desc {
		t.Fatalf("re-granted desc %s != original %s", g2.Desc, g.Desc)
	}
	res, err := experiments.ComputeJob(context.Background(), g2.Desc)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Complete(g2.ID, res, ""); err != nil {
		t.Fatal(err)
	}
	finishRun(t, h)
}

// TestReassignmentRacesCompletion: the lease expires and is re-granted
// while the original holder was merely slow, not dead. Whichever
// completion lands first wins the settle CAS; the other is dropped as
// a duplicate; the run finishes with every job accounted exactly once.
func TestReassignmentRacesCompletion(t *testing.T) {
	const ttl = 5 * time.Second
	sched, c, clk := simCoordinator(t, ttl)
	h := submitCell(t, sched)
	slow, ok := c.Lease("slow-worker")
	if !ok {
		t.Fatal("no lease granted")
	}
	clk.RunFor(ttl + time.Second)
	c.Reap() // slow-worker presumed dead; job requeued
	fast, ok := c.Lease("fast-worker")
	if !ok {
		t.Fatal("requeued job not re-granted")
	}
	res, err := experiments.ComputeJob(context.Background(), slow.Desc)
	if err != nil {
		t.Fatal(err)
	}
	// The presumed-dead holder answers first: its rows are accepted (they
	// are bit-identical to what anyone else would compute).
	if err := c.Complete(slow.ID, res, ""); err != nil {
		t.Fatalf("late completion on expired lease: %v, want accepted", err)
	}
	// The reassigned holder finishes second: dropped as a duplicate.
	if err := c.Complete(fast.ID, res, ""); err != nil {
		t.Fatalf("duplicate completion: %v, want silent drop", err)
	}
	st := c.Stats()
	if st.Completed != 1 || st.Duplicates != 1 || st.Expired != 1 {
		t.Fatalf("stats = %+v, want 1 completed, 1 duplicate, 1 expired", st)
	}
	finishRun(t, h)
}

// TestDoubleReassignAfterTwoDeaths: two consecutive holders die without
// completing; the third grant still carries the same job and its
// completion finishes the run.
func TestDoubleReassignAfterTwoDeaths(t *testing.T) {
	const ttl = 3 * time.Second
	sched, c, clk := simCoordinator(t, ttl)
	h := submitCell(t, sched)
	var descs []experiments.JobDesc
	var last *Grant
	for i := 0; i < 3; i++ {
		g, ok := c.Lease("doomed")
		if !ok {
			t.Fatalf("grant %d: no lease", i)
		}
		descs = append(descs, g.Desc)
		last = g
		if i < 2 {
			clk.RunFor(ttl + time.Millisecond)
			c.Reap()
		}
	}
	if descs[0] != descs[1] || descs[1] != descs[2] {
		t.Fatalf("reassignments drifted: %v", descs)
	}
	if st := c.Stats(); st.Expired != 2 {
		t.Fatalf("stats = %+v, want exactly 2 expired", st)
	}
	res, err := experiments.ComputeJob(context.Background(), last.Desc)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Complete(last.ID, res, ""); err != nil {
		t.Fatal(err)
	}
	finishRun(t, h)
}

// TestLeaseRecordPurge: terminal lease records answer idempotently for
// 2×TTL, then age out to ErrUnknownLease — the coordinator's memory is
// bounded by recent leases, not every lease ever granted.
func TestLeaseRecordPurge(t *testing.T) {
	const ttl = 4 * time.Second
	sched, c, clk := simCoordinator(t, ttl)
	h := submitCell(t, sched)
	g, ok := c.Lease("w")
	if !ok {
		t.Fatal("no lease granted")
	}
	res, err := experiments.ComputeJob(context.Background(), g.Desc)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Complete(g.ID, res, ""); err != nil {
		t.Fatal(err)
	}
	// Within the retention horizon a repeat answer is a clean no-op.
	clk.RunFor(ttl)
	if err := c.Complete(g.ID, res, ""); err != nil {
		t.Fatalf("repeat completion inside retention: %v", err)
	}
	// Past 2×TTL the record is purged.
	clk.RunFor(2*ttl + time.Second)
	c.Reap()
	if err := c.Complete(g.ID, res, ""); !errors.Is(err, ErrUnknownLease) {
		t.Fatalf("completion after purge: %v, want ErrUnknownLease", err)
	}
	if err := c.Heartbeat(g.ID); !errors.Is(err, ErrUnknownLease) {
		t.Fatalf("heartbeat after purge: %v, want ErrUnknownLease", err)
	}
	finishRun(t, h)
}

// TestWorkerErrorFailsRun: a completion carrying a worker error fails
// the submission with that error, like a local worker failure.
func TestWorkerErrorFailsRun(t *testing.T) {
	sched, c, _ := simCoordinator(t, 5*time.Second)
	h := submitCell(t, sched)
	g, ok := c.Lease("w")
	if !ok {
		t.Fatal("no lease granted")
	}
	if err := c.Complete(g.ID, experiments.ExternalResult{}, "bias driver browned out"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Report(); err == nil {
		t.Fatal("run succeeded despite worker failure")
	} else if got := err.Error(); !strings.Contains(got, "browned out") {
		t.Fatalf("run error %q does not carry the worker failure", got)
	}
	if st := c.Stats(); st.Failed != 1 {
		t.Fatalf("stats = %+v, want 1 failed", st)
	}
}

// TestMalformedCompletionAfterExpiry: a holder whose lease expired
// posts a malformed completion after the requeued job went to another
// worker. The job already went back when the lease expired, so the
// rejection must not requeue it a second time: no third worker may be
// granted it, and only the second holder's lease stays live.
func TestMalformedCompletionAfterExpiry(t *testing.T) {
	const ttl = 4 * time.Second
	sched, c, clk := simCoordinator(t, ttl)
	h := submitCell(t, sched)
	gA, ok := c.Lease("A")
	if !ok {
		t.Fatal("no lease granted")
	}
	clk.RunFor(ttl + time.Nanosecond)
	gB, ok := c.Lease("B")
	if !ok {
		t.Fatal("expired job was not re-granted")
	}
	if err := c.Complete(gA.ID, experiments.ExternalResult{}, ""); err == nil {
		t.Fatal("malformed completion accepted")
	}
	if gC, ok := c.Lease("C"); ok {
		t.Fatalf("job granted a third time (%s) while %s holds it", gC.ID, gB.ID)
	}
	if st := c.Stats(); st.Granted != 2 || st.Live != 1 || st.Expired != 1 {
		t.Fatalf("stats = %+v, want 2 granted, 1 live, 1 expired", st)
	}
	res, err := experiments.ComputeJob(context.Background(), gB.Desc)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Complete(gB.ID, res, ""); err != nil {
		t.Fatal(err)
	}
	finishRun(t, h)
}
