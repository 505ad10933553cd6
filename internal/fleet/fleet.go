// Package fleet distributes llama-serve's compute across worker
// processes. The coordinator side pulls point-range jobs out of the
// experiment scheduler through its lease interface
// (experiments.Scheduler.TryLease) and deals them to remote workers
// over a small HTTP pull protocol — lease, heartbeat, complete — with
// heartbeat deadlines: a worker that dies or stalls mid-job loses its
// lease and the job is requeued for someone else. The worker side
// (Worker, cmd/llama-worker) polls for leases, recomputes each job
// from its pure description with the local experiment registry, and
// posts the rows back.
//
// Fleet transparency is determinism invariant 9 (ARCHITECTURE.md): for
// any fleet size and any schedule of worker failures, a run's bytes
// are identical to a single-process run. The coordinator never trusts
// fleet timing — completions land in pre-assigned collection slots
// guarded by a per-job settle CAS, so a late duplicate from a
// presumed-dead worker is accepted if it is first or dropped if it is
// not, and either way the bytes match (every worker computes the same
// pure function).
package fleet

import (
	"container/heap"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/llama-surface/llama/internal/experiments"
)

// Lease lifecycle errors, mapped by the HTTP layer to 404/409.
var (
	// ErrUnknownLease means the lease ID was never granted or its record
	// has already been purged (terminal records are kept 2×TTL).
	ErrUnknownLease = errors.New("fleet: unknown lease")
	// ErrLeaseExpired means the lease's heartbeat deadline passed and the
	// job was requeued; the holder should drop the work (a completion is
	// still worth posting — it is accepted if the recomputation has not
	// finished first).
	ErrLeaseExpired = errors.New("fleet: lease expired")
)

// Config configures a Coordinator.
type Config struct {
	// Sched is the scheduler whose jobs the fleet executes. Required.
	Sched *experiments.Scheduler
	// TTL is the lease heartbeat deadline: a lease not heartbeated for
	// TTL is expired and its job requeued. Defaults to 10s.
	TTL time.Duration
	// Now supplies the clock; defaults to time.Now. Tests drive expiry
	// deterministically through simclock.Clock.Time.
	Now func() time.Time
	// Logf, when non-nil, receives one line per lease-lifecycle event.
	Logf func(format string, args ...any)
}

// leaseState is the lifecycle of one granted lease.
type leaseState int

const (
	leaseLive    leaseState = iota // granted, deadline in the future
	leaseExpired                   // deadline passed; job requeued
	leaseDone                      // completed or failed by its holder
)

// lease is the coordinator's record of one granted job.
type lease struct {
	id       string
	job      *experiments.LeasedJob
	desc     experiments.JobDesc
	worker   string
	deadline time.Time
	state    leaseState
	ended    time.Time // when the lease left leaseLive, for record purge
	due      time.Time // deadline while live, ended+2×TTL once terminal
	idx      int       // position in the coordinator's due heap
}

// dueHeap orders lease records by due time, earliest first, so a reap
// touches only the records it acts on.
type dueHeap []*lease

func (h dueHeap) Len() int           { return len(h) }
func (h dueHeap) Less(i, j int) bool { return h[i].due.Before(h[j].due) }
func (h dueHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *dueHeap) Push(x any) {
	l := x.(*lease)
	l.idx = len(*h)
	*h = append(*h, l)
}
func (h *dueHeap) Pop() any {
	old := *h
	n := len(old)
	l := old[n-1]
	old[n-1] = nil
	l.idx = -1 // purged: a Complete still holding it must not Fix it
	*h = old[:n-1]
	return l
}

// Stats counts lease-lifecycle events since the coordinator started.
type Stats struct {
	// Granted counts leases handed out (including re-grants of requeued
	// jobs); Live is the current outstanding count.
	Granted int64 `json:"granted"`
	Live    int64 `json:"live"`
	// Completed counts first-writer completions; Duplicates counts
	// well-formed completions dropped because the job had already
	// settled (late replies from presumed-dead workers).
	Completed  int64 `json:"completed"`
	Duplicates int64 `json:"duplicates"`
	// Expired counts leases reaped past their heartbeat deadline;
	// Failed counts completions that carried a worker error.
	Expired int64 `json:"expired"`
	Failed  int64 `json:"failed"`
	// Workers maps worker names to their latest reported response-table
	// warmth. Absent until a worker reports one (the empty map is
	// omitted from JSON, so consumers of the counter fields are
	// unaffected).
	Workers map[string]WorkerTables `json:"workers,omitempty"`
}

// WorkerTables is one worker's response-table warmth report: how much
// persisted precompute it imported at startup and its live exact
// response-cache counters. Workers attach it to lease requests;
// GET /fleet/stats surfaces the latest report per worker, so a fleet
// operator can see whether workers actually start warm instead of
// re-deriving every design's physics from scratch.
type WorkerTables struct {
	// WarmTables and WarmEntries count the persisted response tables
	// (and total entries) the worker imported at startup.
	WarmTables  int `json:"warm_tables"`
	WarmEntries int `json:"warm_entries"`
	// Hits and Misses are the worker's process-wide exact response-cache
	// lookups so far; HitRate is Hits/(Hits+Misses), 0 before any lookup.
	Hits    uint64  `json:"hits"`
	Misses  uint64  `json:"misses"`
	HitRate float64 `json:"hit_rate"`
}

// Coordinator deals scheduler jobs to fleet workers and polices their
// leases. Methods are safe for concurrent use.
type Coordinator struct {
	sched *experiments.Scheduler
	ttl   time.Duration
	now   func() time.Time
	logf  func(format string, args ...any)

	mu     sync.Mutex
	leases map[string]*lease
	due    dueHeap // every record in leases, ordered by due time
	nextID int64
	closed bool
	stats  Stats
}

// NewCoordinator validates cfg and returns a running coordinator.
// Expiry is checked lazily on every Lease/Heartbeat/Complete/Reap call
// rather than by a background timer, so a simulated clock drives it
// deterministically. Lease records sit in one heap ordered by due time
// (a live lease's deadline, a terminal record's purge instant), so a
// call pays only for the records that fall due, not for every record
// retained.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if cfg.Sched == nil {
		return nil, errors.New("fleet: Config.Sched is required")
	}
	if cfg.TTL <= 0 {
		cfg.TTL = 10 * time.Second
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return &Coordinator{
		sched:  cfg.Sched,
		ttl:    cfg.TTL,
		now:    cfg.Now,
		logf:   cfg.Logf,
		leases: make(map[string]*lease),
	}, nil
}

// TTL returns the configured lease heartbeat deadline.
func (c *Coordinator) TTL() time.Duration { return c.ttl }

// Lease grants the next dispatchable job to worker, or returns
// (nil, false) when no job is queued right now — the worker backs off
// and polls again. Expired leases are reaped first, so a requeued job
// can be re-granted by the very call that notices its old holder died.
func (c *Coordinator) Lease(worker string) (*Grant, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, false
	}
	c.reapLocked(c.now())
	job := c.sched.TryLease()
	if job == nil {
		return nil, false
	}
	c.nextID++
	l := &lease{
		id:       fmt.Sprintf("lease-%d", c.nextID),
		job:      job,
		desc:     job.Desc(),
		worker:   worker,
		deadline: c.now().Add(c.ttl),
		state:    leaseLive,
	}
	l.due = l.deadline
	c.leases[l.id] = l
	heap.Push(&c.due, l)
	c.stats.Granted++
	c.stats.Live++
	c.logf("fleet: lease %s: %s -> worker %s (deadline %s)", l.id, l.desc, worker, l.deadline.Format(time.RFC3339Nano))
	return &Grant{ID: l.id, Desc: l.desc, TTL: c.ttl}, true
}

// Grant is one granted lease: the job to compute, the lease ID to
// heartbeat and complete under, and the TTL the holder must beat.
type Grant struct {
	// ID names the lease in Heartbeat/Complete calls.
	ID string
	// Desc is the job, in worker-computable terms.
	Desc experiments.JobDesc
	// TTL is the heartbeat deadline interval; holders heartbeat at a
	// fraction of it (Worker uses TTL/3).
	TTL time.Duration
}

// Heartbeat extends a live lease's deadline to now+TTL. A heartbeat
// arriving exactly at the deadline keeps the lease (expiry is strictly
// after); one arriving later gets ErrLeaseExpired and the job has been
// requeued. ErrUnknownLease means the ID was never granted or its
// record aged out.
func (c *Coordinator) Heartbeat(id string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	c.reapLocked(now)
	l, ok := c.leases[id]
	if !ok {
		return ErrUnknownLease
	}
	switch l.state {
	case leaseExpired:
		return ErrLeaseExpired
	case leaseDone:
		return nil // already finished; nothing to extend, nothing to retry
	}
	l.deadline = now.Add(c.ttl)
	l.due = l.deadline
	heap.Fix(&c.due, l.idx)
	return nil
}

// Complete delivers a holder's result (or, when workErr is non-empty,
// its compute failure, with res holding what completed before it) for
// lease id. Idempotent and late-duplicate safe: completing a lease
// that already expired still forwards the rows — the settle CAS
// accepts them if the requeued copy has not finished first and drops
// them otherwise; completing a lease twice is a no-op. A malformed
// payload returns an error (the HTTP layer's 400) and requeues the job
// so an honest worker recomputes it.
func (c *Coordinator) Complete(id string, res experiments.ExternalResult, workErr string) error {
	c.mu.Lock()
	now := c.now()
	c.reapLocked(now)
	l, ok := c.leases[id]
	if !ok {
		c.mu.Unlock()
		return ErrUnknownLease
	}
	if l.state == leaseDone {
		c.mu.Unlock()
		return nil
	}
	settledBefore := l.job.Settled()
	c.mu.Unlock()

	// Forward outside the coordinator lock: Complete/Fail take the
	// scheduler's lock, and settling a cell's last job assembles and
	// persists the cell (an fsync'd write).
	var err error
	if workErr != "" {
		l.job.Fail(failure(l.desc, res, workErr))
	} else {
		err = l.job.Complete(res)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if l.state == leaseDone {
		return nil // a racing Complete for the same lease got there first
	}
	if err != nil {
		c.rejectLocked(l, err, now)
		return err
	}
	c.endLocked(l, leaseDone, now)
	switch {
	case workErr != "":
		c.stats.Failed++
		c.logf("fleet: lease %s: worker %s failed: %s", l.id, l.worker, workErr)
	case settledBefore:
		c.stats.Duplicates++
		c.logf("fleet: lease %s: duplicate completion from worker %s dropped", l.id, l.worker)
	default:
		c.stats.Completed++
	}
	return nil
}

// reject handles a completion for lease id whose payload the wire
// layer could not decode, exactly as Complete handles one the job
// rejects: the lease ends and, while it is still live, its job is
// requeued at once instead of waiting for the TTL. An unknown or
// already finished lease is left alone.
func (c *Coordinator) reject(id string, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	c.reapLocked(now)
	if l, ok := c.leases[id]; ok && l.state != leaseDone {
		c.rejectLocked(l, err, now)
	}
}

// rejectLocked ends lease l after a malformed completion. If the lease
// is still live its job is still leased, so it is requeued rather than
// stranded until the TTL reaps it. An expired lease's job went back
// when it expired and may already be leased to another worker.
func (c *Coordinator) rejectLocked(l *lease, err error, now time.Time) {
	if l.state == leaseLive {
		l.job.Abandon()
	}
	c.endLocked(l, leaseExpired, now)
	c.logf("fleet: lease %s: rejected completion from worker %s: %v", l.id, l.worker, err)
}

// failure rebuilds a worker's reported failure for Fail: the message
// and what completed (res). The failure is placed after the completed
// prefix, at d.Point+len(res.Points); a message from a worker that
// sends no prefix thus lands at the range's first point, with its text
// as before.
func failure(d experiments.JobDesc, res experiments.ExternalResult, msg string) error {
	err := &experiments.PointError{Point: d.Point + len(res.Points), Err: errors.New(msg)}
	return &experiments.JobError{Err: err, Done: res}
}

// Reap expires every lease whose deadline has strictly passed,
// requeueing their jobs, and purges terminal lease records that ended
// more than 2×TTL ago. It is called implicitly by every other method;
// tests (and a service's periodic sweep) may call it directly. Its cost
// grows with the records that fall due, not with the records retained.
func (c *Coordinator) Reap() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reapLocked(c.now())
}

// reapLocked is Reap under c.mu, at an explicit instant. It pops the
// due heap while its earliest record is due strictly before now, which
// is exactly the rule of a full scan: a live lease expires iff
// now.After(deadline), and a terminal record is purged iff
// ended.Before(now-2×TTL). An expired lease goes back into the heap at
// its purge instant. Terminal records linger 2×TTL so a late duplicate
// still gets a clean idempotent answer instead of ErrUnknownLease.
func (c *Coordinator) reapLocked(now time.Time) {
	for len(c.due) > 0 && c.due[0].due.Before(now) {
		l := c.due[0]
		if l.state != leaseLive {
			heap.Pop(&c.due)
			delete(c.leases, l.id)
			continue
		}
		c.endLocked(l, leaseExpired, now)
		c.stats.Expired++
		c.logf("fleet: lease %s: worker %s missed deadline; requeueing %s", l.id, l.worker, l.desc)
		l.job.Abandon()
	}
}

// endLocked moves a lease to a terminal state, stamps it for purge,
// reorders it in the due heap and maintains the Live gauge
// (decremented exactly once per lease).
func (c *Coordinator) endLocked(l *lease, st leaseState, now time.Time) {
	if l.state == leaseLive {
		c.stats.Live--
	}
	l.state = st
	l.ended = now
	l.due = now.Add(2 * c.ttl)
	if l.idx >= 0 {
		heap.Fix(&c.due, l.idx)
	}
}

// Stats returns a snapshot of the lease-lifecycle counters. The
// Workers map is deep-copied so the snapshot stays stable while
// workers keep reporting.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	if len(c.stats.Workers) > 0 {
		st.Workers = make(map[string]WorkerTables, len(c.stats.Workers))
		for name, wt := range c.stats.Workers {
			st.Workers[name] = wt
		}
	}
	return st
}

// RecordWorkerTables stores a worker's latest response-table warmth
// report under its name (latest report wins). Empty worker names are
// dropped — there is nothing meaningful to attribute them to.
func (c *Coordinator) RecordWorkerTables(worker string, wt WorkerTables) {
	if worker == "" {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	if c.stats.Workers == nil {
		c.stats.Workers = make(map[string]WorkerTables)
	}
	c.stats.Workers[worker] = wt
}

// Close stops granting and abandons every live lease so outstanding
// jobs return to the scheduler (whose own Close settles them). Safe to
// call more than once.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	var live []*lease
	for _, l := range c.leases {
		if l.state == leaseLive {
			c.endLocked(l, leaseExpired, c.now())
			live = append(live, l)
		}
	}
	c.mu.Unlock()
	for _, l := range live {
		l.job.Abandon()
	}
}
