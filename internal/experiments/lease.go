package experiments

// Lease support: the fleet coordinator's pull path into the scheduler.
// Every job has one shape — a contiguous point range of one sweep
// (JobDesc) — and a lease holder runs the local pool worker's job body:
// TryLease deals from the same ring walk, ComputeJob computes the
// range, Complete or Fail commits its points through the same settle.
// The local pool is thus a holder that never hands its job back. An
// external holder (a remote worker reached over HTTP — see
// internal/fleet) completes or fails its job, or the job is abandoned
// back onto its submission's queue when the holder's lease expires.
// Every terminal path funnels through the per-job settle CAS, so a
// duplicate or late completion from a presumed-dead worker is dropped
// without corrupting collection slots — fleet transparency,
// determinism invariant 9 in ARCHITECTURE.md.

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// JobDesc names one job in worker-computable terms: which experiment,
// which seed, and which contiguous point range of the sweep axis — the
// whole axis for an unsharded cell, one batch of a row-sharded one. It
// is pure data; a worker process with the same experiment registry
// recomputes the job from it bit-identically (ComputeJob). The fleet's
// lease grants carry it as JSON under these tags.
type JobDesc struct {
	// ID and Seed name the (experiment, seed) cell the job belongs to.
	ID   string `json:"id"`
	Seed int64  `json:"seed"`
	// Point is the first axis index of the job's range.
	Point int `json:"point"`
	// Count is the number of consecutive points the job covers.
	Count int `json:"count"`
}

// String renders the desc for logs, e.g. "fig15/seed7[3+2]".
func (d JobDesc) String() string {
	return fmt.Sprintf("%s/seed%d[%d+%d]", d.ID, d.Seed, d.Point, d.Count)
}

// ExternalResult is a job's computed output, whoever computed it: a
// local pool worker, an in-process lease holder or a remote fleet
// worker. A JobError's Done holds the part a failed job completed.
type ExternalResult struct {
	// Points holds one PointResult per point of the job's range, in
	// axis order.
	Points []PointResult
	// Elapsed optionally reports the compute time for the whole job; it
	// feeds timing aggregation only, never result bytes.
	Elapsed time.Duration
}

// JobError is ComputeJob's failure. Besides the error it carries what
// the job completed before failing, so a holder's Fail(err) salvages
// exactly what the local pool does: the range's finished prefix
// (Done.Points, the points before the failing one).
type JobError struct {
	// Err is the failure: a *PointError naming the failing point,
	// wrapping the point's own error or the cancellation seen before it.
	Err error
	// Done is the completed part and the compute time spent.
	Done ExternalResult
}

// Error returns Err's text: a JobError never changes what a run reports.
func (e *JobError) Error() string { return e.Err.Error() }

// Unwrap returns the failure.
func (e *JobError) Unwrap() error { return e.Err }

// ComputeJob computes one job from its desc using the local experiment
// registry. It is the one compute path: a local pool worker and every
// lease holder call it. It is pure in desc (invariant 1 applied
// remotely): any process with the same registry produces bit-identical
// output for the same desc. It runs the desc's points in axis order and
// nothing else. A job covering its sweep's whole axis —
// every unsharded cell, and a sharded cell whose one batch spans the
// axis (a one-point sweep, or BatchRows at least the axis length) —
// checks ctx before each point, as the serial path does, so a cancelled
// cell stops between points. Any other batch of a sharded cell runs to
// its end, so a failing run's in-flight batches still finish and the
// salvaged prefix of a multi-batch cell does not depend on timing. A
// compute failure or cancellation is a *JobError whose *PointError
// names the first uncomputed point, and the returned result is then its
// Done: the part that completed.
func ComputeJob(ctx context.Context, d JobDesc) (ExternalResult, error) {
	start := time.Now()
	sw, ok := sweeps[d.ID]
	if !ok {
		return ExternalResult{}, fmt.Errorf("experiments: %s is not a registered sweep", d.ID)
	}
	if d.Point < 0 || d.Count < 1 || d.Count > sw.Points-d.Point {
		return ExternalResult{}, fmt.Errorf("experiments: %s: range [%d+%d] outside axis of %d points", d.ID, d.Point, d.Count, sw.Points)
	}
	pts := make([]PointResult, d.Count)
	whole := d.Point == 0 && d.Count == sw.Points
	for i := range pts {
		var err error
		if whole {
			err = ctx.Err()
		}
		if err == nil {
			pts[i], err = sw.Point(ctx, d.Seed, d.Point+i)
		}
		if err != nil {
			done := ExternalResult{Points: pts[:i], Elapsed: time.Since(start)}
			return done, &JobError{Err: &PointError{Point: d.Point + i, Points: sw.Points, Err: err}, Done: done}
		}
	}
	return ExternalResult{Points: pts, Elapsed: time.Since(start)}, nil
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
// backs off; leasing never blocks). It deals through the same ring walk
// as the local pool (Scheduler.dealLocked), so leasing out work cannot
// change any submission's bytes.
func (s *Scheduler) TryLease() *LeasedJob {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return nil
	}
	jb, ok := s.dealLocked(true)
	if !ok {
		return nil
	}
	return &LeasedJob{sub: jb.sub, jb: jb}
}

// Desc returns the job in worker-computable terms.
func (l *LeasedJob) Desc() JobDesc { return l.jb.desc() }

// Settled reports whether the job has already reached a terminal state
// (completed by anyone, failed, or abandoned by cancellation). A
// coordinator uses it to skip reassigning work that no longer needs a
// holder.
func (l *LeasedJob) Settled() bool { return l.sub.settled[l.jb.ji].Load() }

// Complete delivers the holder's computed output through the same
// commit the local pool takes (submission.settle). A malformed payload
// (wrong point count, wrong row arity) is rejected with an error
// BEFORE the settle CAS, leaving the job leased — the caller abandons
// it so an honest worker recomputes it; a corrupt reply must never
// poison collection slots. A well-formed duplicate —
// the job was reassigned and someone else already settled it — is
// dropped silently: Complete returns nil and the slots keep the first
// writer's bytes, which are identical anyway (invariant 1).
func (l *LeasedJob) Complete(res ExternalResult) error {
	if err := l.check(res, false); err != nil {
		return err
	}
	l.commit(res, nil)
	return nil
}

// Fail records the holder's compute error as the job's failure and
// fails the submission fast, through the same commit as a local worker
// error: a *JobError's completed part is salvaged (dropped if
// malformed), and a *PointError inside the job's range places the
// failure at its point, so the run error names that point once.
// Idempotent: if the job already settled, the error is dropped.
func (l *LeasedJob) Fail(err error) {
	if err == nil {
		err = errors.New("experiments: lease holder failed without an error")
	}
	var done ExternalResult
	var je *JobError
	if errors.As(err, &je) && l.check(je.Done, true) == nil {
		done = je.Done
	}
	l.commit(done, err)
}

// check validates a holder's output against the job's range. partial
// accepts a failed job's completed part: a shorter prefix.
func (l *LeasedJob) check(res ExternalResult, partial bool) error {
	jb := l.jb
	sw := l.sub.cells[jb.cell].sweep
	if len(res.Points) != jb.count && !(partial && len(res.Points) < jb.count) {
		return fmt.Errorf("experiments: %s: completion carries %d points, lease covers %d", l.Desc(), len(res.Points), jb.count)
	}
	for i, pt := range res.Points {
		for _, row := range pt.Rows {
			if len(row) != len(sw.Columns) {
				return fmt.Errorf("experiments: %s: point %d row arity %d != %d columns", l.Desc(), jb.point+i, len(row), len(sw.Columns))
			}
		}
	}
	return nil
}

// commit settles the job with done/err, drops its lease bookkeeping,
// and accounts it if this holder won the settle.
func (l *LeasedJob) commit(done ExternalResult, err error) {
	won := l.sub.settle(l.jb, done, err)
	l.detach()
	if won {
		l.sub.jobDone(1)
	}
}

// Abandon returns an unfinished job to its submission's queue — the
// lease expired, the worker reported a malformed payload, or the
// coordinator is shutting down — so another holder (or a local worker)
// picks it up. If the submission has meanwhile been cancelled the job
// is settled instead of requeued, so a dead run never keeps work
// circulating. Idempotent.
func (l *LeasedJob) Abandon() {
	sub, jb := l.sub, l.jb
	if sub.ctx.Err() != nil {
		// Cancelled submission: account the slot instead of recirculating.
		won := sub.settled[jb.ji].CompareAndSwap(false, true)
		l.detach()
		if won {
			sub.jobDone(1)
		}
		return
	}
	s := sub.sched
	s.mu.Lock()
	delete(sub.leased, jb.ji)
	if !sub.settled[jb.ji].Load() {
		sub.requeue = append(sub.requeue, jb)
		if !sub.inRing {
			sub.inRing = true
			s.lanes[sub.lane] = append(s.lanes[sub.lane], sub)
		}
		s.cond.Broadcast() // wake local workers for the requeued job
	}
	s.mu.Unlock()
}

// detach drops the job's lease bookkeeping.
func (l *LeasedJob) detach() {
	s := l.sub.sched
	s.mu.Lock()
	delete(l.sub.leased, l.jb.ji)
	s.mu.Unlock()
}
