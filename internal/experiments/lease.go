package experiments

// Lease support: the fleet coordinator's pull path into the scheduler.
// TryLease deals the same jobs the local pool would have executed, in
// the same lane/round-robin order, to an external holder (a remote
// worker reached over HTTP — see internal/fleet). A leased job is
// completed with rows the holder computed, failed, or abandoned back
// onto its submission's queue when the holder's lease expires. Every
// terminal path funnels through the submission's per-job settle CAS,
// so a duplicate or late completion from a presumed-dead worker is
// dropped without corrupting collection slots — fleet transparency,
// determinism invariant 9 in ARCHITECTURE.md.

import (
	"context"
	"fmt"
	"time"
)

// JobDesc names one leased job in worker-computable terms: which
// experiment, which seed, and — for a row-sharded job — which
// contiguous point batch of the sweep axis. It is pure data; a worker
// process with the same experiment registry recomputes the job from it
// bit-identically (ComputeJob).
type JobDesc struct {
	// ID and Seed name the (experiment, seed) cell the job belongs to.
	ID   string
	Seed int64
	// Sharded reports whether the job is a sweep point batch (compute
	// Count points starting at Point) or a whole-experiment cell
	// (Point/Count are 0/1 and the worker runs the full experiment).
	Sharded bool
	// Point is the first axis index of a sharded job's batch.
	Point int
	// Count is the number of consecutive points the job covers.
	Count int
}

// String renders the desc for logs: "fig15/seed7[3+2]" for a sharded
// batch, "tab1/seed1" for a whole cell.
func (d JobDesc) String() string {
	if d.Sharded {
		return fmt.Sprintf("%s/seed%d[%d+%d]", d.ID, d.Seed, d.Point, d.Count)
	}
	return fmt.Sprintf("%s/seed%d", d.ID, d.Seed)
}

// ExternalResult carries a lease holder's computed output back into
// the submission. Exactly one of Points/Cell is set, matching the
// job's shape (JobDesc.Sharded).
type ExternalResult struct {
	// Points holds one PointResult per point of a sharded job's batch,
	// in axis order.
	Points []PointResult
	// Cell is the full table of a whole-experiment job.
	Cell *Result
	// Elapsed optionally reports the holder's compute time for the
	// whole job; it feeds timing aggregation only, never result bytes.
	Elapsed time.Duration
}

// ComputeJob recomputes a leased job from its desc using the local
// experiment registry — the worker-side half of the lease protocol.
// It is pure in desc (invariant 1 applied remotely): any process with
// the same registry produces bit-identical output for the same desc.
func ComputeJob(ctx context.Context, d JobDesc) (ExternalResult, error) {
	start := time.Now()
	if d.Sharded {
		sw, ok := sweeps[d.ID]
		if !ok {
			return ExternalResult{}, fmt.Errorf("experiments: %s is not a registered sweep", d.ID)
		}
		if d.Point < 0 || d.Count < 1 || d.Count > sw.Points-d.Point {
			return ExternalResult{}, fmt.Errorf("experiments: %s: batch [%d+%d] outside axis of %d points", d.ID, d.Point, d.Count, sw.Points)
		}
		pts := make([]PointResult, d.Count)
		if sw.Warm != nil {
			sw.Warm(ctx, d.Seed, d.Point, d.Count)
		}
		for i := 0; i < d.Count; i++ {
			pt, err := sw.Point(ctx, d.Seed, d.Point+i)
			if err != nil {
				return ExternalResult{}, &PointError{Point: d.Point + i, Points: sw.Points, Err: err}
			}
			pts[i] = pt
		}
		return ExternalResult{Points: pts, Elapsed: time.Since(start)}, nil
	}
	res, err := Run(ctx, d.ID, d.Seed)
	if err != nil {
		return ExternalResult{}, err
	}
	return ExternalResult{Cell: res, Elapsed: time.Since(start)}, nil
}

// LeasedJob is one job dealt to an external holder by TryLease. The
// holder must end it exactly one way — Complete, Fail, or Abandon —
// though calling into an already-settled job is always safe (the
// settle CAS makes every terminal idempotent). Methods are safe for
// concurrent use.
type LeasedJob struct {
	sub *submission
	jb  schedJob
}

// TryLease deals the next dispatchable job to an external holder, or
// returns nil when no job is currently queued (the caller polls or
// backs off; leasing never blocks). Dispatch order is exactly the
// local pool's — priority lane first, round-robin within a lane — so
// leasing out work cannot change any submission's bytes.
func (s *Scheduler) TryLease() *LeasedJob {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return nil
	}
	for lane := range s.lanes {
		for len(s.lanes[lane]) > 0 {
			sub := s.lanes[lane][0]
			s.lanes[lane] = s.lanes[lane][1:]
			jb, ok := sub.popJobLocked()
			if ok {
				// The outstanding lease holds fed open: the job may still
				// be requeued, so the cancel watcher must stay armed.
				sub.leased[jb.ji] = struct{}{}
			}
			if sub.pendingLocked() {
				s.lanes[lane] = append(s.lanes[lane], sub)
			} else {
				sub.inRing = false
				sub.maybeReleaseLocked()
			}
			if ok {
				return &LeasedJob{sub: sub, jb: jb}
			}
		}
	}
	return nil
}

// Desc returns the job in worker-computable terms.
func (l *LeasedJob) Desc() JobDesc {
	c := &l.sub.cells[l.jb.cell]
	return JobDesc{
		ID:      c.id,
		Seed:    c.seed,
		Sharded: c.sweep != nil,
		Point:   l.jb.point,
		Count:   l.jb.count,
	}
}

// Settled reports whether the job has already reached a terminal state
// (completed by anyone, failed, or abandoned by cancellation). A
// coordinator uses it to skip reassigning work that no longer needs a
// holder.
func (l *LeasedJob) Settled() bool { return l.sub.settled[l.jb.ji].Load() }

// Complete delivers the holder's computed output. A malformed payload
// (wrong batch length, wrong row arity, missing table) is rejected
// with an error BEFORE the settle CAS, leaving the job leased — the
// caller abandons it so an honest worker recomputes it; a corrupt
// reply must never poison collection slots. A well-formed duplicate —
// the job was reassigned and someone else already settled it — is
// dropped silently: Complete returns nil and the slots keep the first
// writer's bytes, which are identical anyway (invariant 1).
func (l *LeasedJob) Complete(res ExternalResult) error {
	sub, jb := l.sub, l.jb
	c := &sub.cells[jb.cell]
	if c.sweep != nil {
		if len(res.Points) != jb.count {
			return fmt.Errorf("experiments: %s: completion carries %d points, lease covers %d", l.Desc(), len(res.Points), jb.count)
		}
		for i, pt := range res.Points {
			for _, row := range pt.Rows {
				if len(row) != len(c.sweep.Columns) {
					return fmt.Errorf("experiments: %s: point %d row arity %d != %d columns", l.Desc(), jb.point+i, len(row), len(c.sweep.Columns))
				}
			}
		}
	} else {
		if res.Cell == nil {
			return fmt.Errorf("experiments: %s: completion carries no result table", l.Desc())
		}
		if res.Cell.ID != c.id {
			return fmt.Errorf("experiments: %s: completion names experiment %q", l.Desc(), res.Cell.ID)
		}
		for ri, row := range res.Cell.Rows {
			if len(row) != len(res.Cell.Columns) {
				return fmt.Errorf("experiments: %s: row %d arity %d != %d columns", l.Desc(), ri, len(row), len(res.Cell.Columns))
			}
		}
	}
	if !sub.settled[jb.ji].CompareAndSwap(false, true) {
		l.detach()
		return nil // duplicate or post-abandon completion: dropped
	}
	now := time.Now()
	if c.sweep != nil {
		for i, pt := range res.Points {
			p := jb.point + i
			c.started[p] = now
			c.points[p] = pt
			c.done[p] = true
		}
		c.elapsed[jb.point] = res.Elapsed
	} else {
		c.started[jb.point] = now
		c.elapsed[jb.point] = res.Elapsed
		c.res = res.Cell
		c.done[jb.point] = true
	}
	l.detach()
	sub.jobDone(1)
	return nil
}

// Fail records the holder's compute error as the job's failure and
// fails the submission fast, exactly as a local worker error would.
// Idempotent: if the job already settled, the error is dropped.
func (l *LeasedJob) Fail(err error) {
	sub, jb := l.sub, l.jb
	if !sub.settled[jb.ji].CompareAndSwap(false, true) {
		l.detach()
		return
	}
	c := &sub.cells[jb.cell]
	if c.sweep == nil {
		err = fmt.Errorf("experiments: %s (seed %d): %w", c.id, c.seed, err)
	}
	c.errs[jb.point] = err
	sub.cancelFn()
	l.detach()
	sub.jobDone(1)
}

// Abandon returns an unfinished job to its submission's queue — the
// lease expired, the worker reported a malformed payload, or the
// coordinator is shutting down — so another holder (or a local worker)
// picks it up. If the submission has meanwhile been cancelled the job
// is settled instead of requeued, so a dead run never keeps work
// circulating. Idempotent.
func (l *LeasedJob) Abandon() {
	sub, jb := l.sub, l.jb
	if sub.settled[jb.ji].Load() {
		l.detach()
		return
	}
	if sub.ctx.Err() != nil {
		// Cancelled submission: account the slot instead of recirculating.
		if sub.settled[jb.ji].CompareAndSwap(false, true) {
			l.detach()
			sub.jobDone(1)
		} else {
			l.detach()
		}
		return
	}
	s := sub.sched
	s.mu.Lock()
	delete(sub.leased, jb.ji)
	if !sub.settled[jb.ji].Load() {
		sub.requeue = append(sub.requeue, jb)
		if !sub.inRing && !sub.fedClosed {
			sub.inRing = true
			s.lanes[sub.lane] = append(s.lanes[sub.lane], sub)
		}
		s.cond.Broadcast() // wake local workers for the requeued job
	} else {
		sub.dropSettledRequeueLocked()
		sub.maybeReleaseLocked()
	}
	s.mu.Unlock()
}

// detach drops the job's lease bookkeeping and lets fed close if this
// was the submission's last open obligation.
func (l *LeasedJob) detach() {
	sub := l.sub
	s := sub.sched
	s.mu.Lock()
	delete(sub.leased, l.jb.ji)
	sub.dropSettledRequeueLocked()
	sub.maybeReleaseLocked()
	s.mu.Unlock()
}
