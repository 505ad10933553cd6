package experiments

// The scheduler is the one execution core behind every run: ONE bounded
// worker pool serves MANY concurrent submissions. A long-lived service
// Submits runs as they arrive and every run's jobs interleave in the
// same queue. A job has one shape: a contiguous point range of one
// (experiment, seed) cell's sweep — the whole axis for an unsharded
// cell, a BatchRows-sized batch of a sharded one. Collection stays
// slot-indexed per submission and assembly runs per cell from its own
// slots, so sharing the pool cannot change any submission's bytes;
// that is what lets `llama-serve` promise service-served results
// bit-identical to `llama-bench` output (determinism invariant 7 in
// ARCHITECTURE.md). The one-shot path
// (Execute, and llama.RunExperiments over it) lays its run out as one
// submission on a private scheduler, so every entry point executes this
// same core. A local pool worker is one more job holder: it deals from
// the ring walk TryLease uses, computes with ComputeJob and commits
// through the settle that Complete and Fail take (lease.go).

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/llama-surface/llama/internal/metasurface"
	"github.com/llama-surface/llama/internal/store"
)

// RunSpec describes one submission (see store.RunSpec for its fields).
// It is the submission-shaped equivalent of Options (which remains the
// one-shot configuration).
type RunSpec = store.RunSpec

// cloneSpec deep-copies the spec's slices so callers cannot mutate a
// submission's layout after the fact.
func cloneSpec(sp RunSpec) RunSpec {
	sp.IDs = append([]string(nil), sp.IDs...)
	sp.Seeds = append([]int64(nil), sp.Seeds...)
	return sp
}

// ErrSchedulerClosed is returned by Submit once Close has begun: the
// pool is draining and can accept no further work. Service fronts map
// it to a retryable (503-style) condition rather than a spec error.
var ErrSchedulerClosed = errors.New("experiments: scheduler is closed")

// SchedulerConfig sizes a Scheduler.
type SchedulerConfig struct {
	// Workers bounds the shared pool; ≤0 means runtime.GOMAXPROCS(0).
	Workers int
	// Store, when non-nil, is the durable results backend: every
	// submission persists each freshly computed cell there as the cell's
	// last job settles, and Resume submissions consult it before
	// queueing jobs.
	Store *store.Store
	// LeaseOnly starts no local workers at all: jobs are dispatched
	// exclusively through TryLease (the fleet coordinator's pull path),
	// so the coordinator process spends no CPU on compute. Zero-job
	// submissions (fully resumed from the store) still finalize
	// immediately, so result reconstruction works without a fleet.
	LeaseOnly bool
}

// Dispatch lanes: the priority lane is always served before the normal
// lane, and within each lane submissions are served round-robin, one
// job at a time — so one huge submission cannot starve its neighbours,
// and a decode-heavy reconstruction (the service's result path) never
// queues behind live compute.
const (
	lanePriority = iota
	laneNormal
	laneCount
)

// Scheduler owns one bounded worker pool and the per-submission job
// queues behind it. Dispatch is round-robin across the submissions of a
// lane (fairness) with the priority lane drained first. It is
// long-lived: create one, Submit many runs concurrently, Close once.
// Methods are safe for concurrent use.
type Scheduler struct {
	workers int
	st      *store.Store

	pool sync.WaitGroup // worker goroutines

	mu   sync.Mutex
	cond *sync.Cond // signalled when a lane gains work or the pool stops

	active map[*submission]struct{}
	// lanes are the dispatch rings: FIFOs of submissions that still have
	// unfed jobs. A worker takes the front submission's next job and, if
	// the submission has more, re-appends it at the back — that rotation
	// is the round-robin.
	lanes   [laneCount][]*submission
	closed  bool           // no new submissions
	stopped bool           // workers may exit (set after the last submission drains)
	subs    sync.WaitGroup // finalizers of live submissions
}

// NewScheduler starts the worker pool. Close must be called to release
// it.
func NewScheduler(cfg SchedulerConfig) *Scheduler {
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if cfg.LeaseOnly {
		w = 0
	}
	s := &Scheduler{
		workers: w,
		st:      cfg.Store,
		active:  make(map[*submission]struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	s.pool.Add(w)
	for i := 0; i < w; i++ {
		go s.worker()
	}
	return s
}

// worker is the local pool's holder loop — deal a job, compute it with
// ComputeJob, commit it with settle — the same body every lease holder
// runs. It waits for work until Close stops the pool.
func (s *Scheduler) worker() {
	defer s.pool.Done()
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if jb, ok := s.dealLocked(false); ok {
			s.mu.Unlock()
			jb.sub.execute(jb)
			s.mu.Lock()
		} else if s.stopped {
			return
		} else {
			s.cond.Wait()
		}
	}
}

// dealLocked is the one ring walk behind the local pool and TryLease.
// The priority lane is drained first; within a lane the front
// submission yields one job and rotates to the back, so concurrent
// submissions advance in lockstep regardless of size. Jobs requeued by
// an expired lease are dealt before the submission's undispatched
// tail, and jobs a late external completion already settled are
// skipped. A leased job is recorded in sub.leased, so a cancellation
// settles it even if its holder never reports back. Caller holds s.mu.
func (s *Scheduler) dealLocked(lease bool) (schedJob, bool) {
	for lane := range s.lanes {
		for len(s.lanes[lane]) > 0 {
			sub := s.lanes[lane][0]
			s.lanes[lane] = s.lanes[lane][1:]
			jb, ok := sub.popJobLocked()
			if ok && lease {
				sub.leased[jb.ji] = struct{}{}
			}
			if sub.pendingLocked() {
				s.lanes[lane] = append(s.lanes[lane], sub)
			} else {
				sub.inRing = false
			}
			if ok {
				return jb, true
			}
		}
	}
	return schedJob{}, false
}

// popJobLocked yields the submission's next dispatchable job: requeued
// lease returns first (skipping any a late completion settled in the
// meantime), then the undispatched tail of the fixed queue. Caller
// holds the scheduler mutex.
func (sub *submission) popJobLocked() (schedJob, bool) {
	for len(sub.requeue) > 0 {
		jb := sub.requeue[0]
		sub.requeue = sub.requeue[1:]
		if !sub.settled[jb.ji].Load() {
			return jb, true
		}
	}
	if sub.nextJob < len(sub.queue) {
		jb := sub.queue[sub.nextJob]
		sub.nextJob++
		return jb, true
	}
	return schedJob{}, false
}

// pendingLocked reports whether the submission still has undispatched
// work (requeued or never dealt). Caller holds the scheduler mutex.
func (sub *submission) pendingLocked() bool {
	return len(sub.requeue) > 0 || sub.nextJob < len(sub.queue)
}

// abandon settles a cancelled submission's unfinished jobs — requeued,
// undispatched, and leased-out alike — and accounts them as done, so
// the submission finalizes promptly even while every worker is busy
// elsewhere and no lease holder ever reports back. launch registers it
// with context.AfterFunc: it runs once, when the submission's context
// dies, unless finish stopped it first. Jobs already dispatched to a
// local worker account for themselves in execute; a lease completion
// arriving after this loses the settle race and is dropped.
func (s *Scheduler) abandon(sub *submission) {
	s.mu.Lock()
	n := 0
	settle := func(ji int) {
		if sub.settled[ji].CompareAndSwap(false, true) {
			n++
		}
	}
	for _, jb := range sub.requeue {
		settle(jb.ji)
	}
	sub.requeue = nil
	for ; sub.nextJob < len(sub.queue); sub.nextJob++ {
		settle(sub.queue[sub.nextJob].ji)
	}
	for ji := range sub.leased {
		settle(ji)
		delete(sub.leased, ji)
	}
	if sub.inRing {
		ring := s.lanes[sub.lane]
		for i, x := range ring {
			if x == sub {
				s.lanes[sub.lane] = append(ring[:i], ring[i+1:]...)
				break
			}
		}
		sub.inRing = false
	}
	s.mu.Unlock()
	sub.jobDone(n)
}

// Submit validates and lays out spec, enqueues its jobs on the normal
// lane behind whatever is already running, and returns a handle
// immediately. The submission's output is bit-identical to what Execute
// would produce for the same spec, regardless of what else shares the
// pool. ctx cancellation (or RunHandle.Cancel) stops the submission
// without touching its neighbours.
func (s *Scheduler) Submit(ctx context.Context, spec RunSpec) (*RunHandle, error) {
	return s.submit(ctx, spec, laneNormal)
}

// SubmitPriority is Submit on the priority lane: its jobs are
// dispatched before any normal-lane job (round-robin among priority
// submissions). It exists for latency-sensitive reconstruction work —
// the service re-serves a completed run by decoding stored cells, and
// the few jobs such a submission queues (only cells the store lost)
// must not wait behind hours of live compute. Output bytes are
// unaffected by the lane (determinism invariant 3).
func (s *Scheduler) SubmitPriority(ctx context.Context, spec RunSpec) (*RunHandle, error) {
	return s.submit(ctx, spec, lanePriority)
}

// submit is the shared Submit/SubmitPriority body.
func (s *Scheduler) submit(ctx context.Context, spec RunSpec, lane int) (*RunHandle, error) {
	sub, err := newSubmission(ctx, spec, s.st)
	if err != nil {
		return nil, err
	}
	if err := s.launch(sub, lane); err != nil {
		return nil, err
	}
	return &RunHandle{sub: sub}, nil
}

// launch registers a laid-out submission and makes its jobs
// dispatchable on the given lane, registering abandon on its context
// in the same critical section.
func (s *Scheduler) launch(sub *submission, lane int) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		sub.cancelFn() // release the derived context
		return ErrSchedulerClosed
	}
	sub.sched = s
	sub.workers = s.workers
	sub.lane = lane
	s.active[sub] = struct{}{}
	s.subs.Add(1)
	if len(sub.queue) == 0 {
		// Fully resumed from the store (or an empty selection): nothing
		// to dispatch, finalize straight away — the pool is never touched,
		// so decode-only reconstructions cannot queue behind compute.
		s.mu.Unlock()
		go sub.finish()
		return nil
	}
	sub.inRing = true
	s.lanes[lane] = append(s.lanes[lane], sub)
	sub.stopAbandon = context.AfterFunc(sub.ctx, func() { s.abandon(sub) })
	s.cond.Broadcast()
	s.mu.Unlock()
	return nil
}

// Close cancels every live submission, waits for them to finalize
// (cells completed before the cancellation are already in the store —
// the salvage path), then stops and releases the worker pool. Safe to
// call more than once.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	live := make([]*submission, 0, len(s.active))
	for sub := range s.active {
		live = append(live, sub)
	}
	s.mu.Unlock()
	for _, sub := range live {
		sub.cancelFn()
	}
	s.subs.Wait()
	s.mu.Lock()
	s.stopped = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.pool.Wait()
}

// schedJob is one unit of queued work: the contiguous point range
// [point, point+count) of one cell's sweep. ji is the
// job's index in its submission's fixed queue — the settle key that
// makes completion idempotent when a job is dispatched more than once
// (lease expiry requeues it).
type schedJob struct {
	sub          *submission
	cell         int
	point, count int
	ji           int
}

// desc returns the job in worker-computable terms.
func (jb schedJob) desc() JobDesc {
	c := &jb.sub.cells[jb.cell]
	return JobDesc{ID: c.id, Seed: c.seed, Point: jb.point, Count: jb.count}
}

// submission is one Submit call in flight: its fixed cell/job layout,
// collection slots, and completion state. The layout is built before
// any job runs (invariant 3), so concurrent submissions sharing the
// pool cannot perturb each other's slot assignment.
type submission struct {
	spec RunSpec // normalized: IDs resolved, seeds deduplicated and defaulted, batch clamped

	parent      context.Context // the submitter's context: its cancellation wins
	ctx         context.Context // derived; cancelled on failure/Cancel/Close, and released by finish
	cancelFn    context.CancelFunc
	userCancel  atomic.Bool
	stopAbandon func() bool // unregisters launch's abandon callback; nil if no job was queued

	sched   *Scheduler
	st      *store.Store
	workers int

	// Dispatch state, guarded by the scheduler's mu: the lane the
	// submission queues on, the index of its next undispatched job, and
	// whether it currently sits in its lane's ring. requeue holds jobs
	// returned by expired/abandoned leases, dealt before the queue tail
	// (a copy a late completion settled is skipped at the next deal);
	// leased tracks job indices currently out on a lease, which abandon
	// settles on cancellation.
	lane    int
	nextJob int
	inRing  bool
	requeue []schedJob
	leased  map[int]struct{}

	// settled has one flag per queue slot; the first finisher — settle
	// (every holder's commit) or abandonment — wins the CAS and alone
	// writes the job's collection slots and accounts it in jobDone.
	// Everyone else drops their result. That single gate is what makes
	// duplicate completions, reassignment races, and late replies from
	// presumed-dead workers safe (invariant 9).
	settled []atomic.Bool

	start      time.Time
	cacheStart metasurface.CacheStats

	cells      []cellRun
	queue      []schedJob
	storeWarns []string
	reused     int

	completed atomic.Int64 // job slots executed or abandoned
	done      chan struct{}
	report    *Report
	err       error
}

// newSubmission validates spec and lays out every cell and job slot —
// consulting the store for reusable cells when spec.Resume is set —
// before any worker can touch it.
func newSubmission(ctx context.Context, spec RunSpec, st *store.Store) (*submission, error) {
	if spec.Resume && st == nil {
		return nil, errors.New("experiments: RunSpec.Resume requires a results store (set Options.StoreDir / SchedulerConfig.Store)")
	}
	ids, err := resolveIDs(spec.IDs)
	if err != nil {
		return nil, err
	}
	// Each seed runs once, in the order of its first appearance: a
	// repeated seed would compute and persist the same cells twice.
	var seeds []int64
	seen := make(map[int64]bool, len(spec.Seeds))
	for _, seed := range spec.Seeds {
		if !seen[seed] {
			seen[seed] = true
			seeds = append(seeds, seed)
		}
	}
	if len(seeds) == 0 {
		seeds = []int64{1}
	}
	// Batching only groups sweep points, so an unsharded spec runs and
	// records batch 1 whatever it asked for.
	batch := spec.BatchRows
	if batch < 1 || !spec.ShardRows {
		batch = 1
	}
	runCtx, cancel := context.WithCancel(ctx)
	sub := &submission{
		spec: RunSpec{
			IDs:       ids,
			Seeds:     seeds,
			ShardRows: spec.ShardRows,
			BatchRows: batch,
			Resume:    spec.Resume,
		},
		parent:     ctx,
		ctx:        runCtx,
		cancelFn:   cancel,
		st:         st,
		start:      time.Now(),
		cacheStart: metasurface.GlobalCacheStats(),
		done:       make(chan struct{}),
	}
	// Lay out every cell and its job slots before any worker starts: the
	// fixed layout is what makes collection order-independent. A job
	// covers a contiguous range of sweep points — the whole axis, or a
	// batch when sharded — but collection slots stay per point, so the
	// range size cannot reorder rows.
	// The cells slice never grows past its capacity, so a cell's address
	// is fixed from here on.
	sub.cells = make([]cellRun, 0, len(ids)*len(seeds))
	for _, id := range ids {
		for _, seed := range seeds {
			ci := len(sub.cells)
			sub.cells = append(sub.cells, cellRun{id: id, seed: seed})
			c := &sub.cells[ci]
			if spec.Resume && st != nil {
				// A valid stored record stands in for the whole cell: no
				// jobs are queued and res is the decoded table, so
				// aggregation folds stored and fresh seeds identically.
				if res, warn, ok := loadStored(st, id, seed); ok {
					c.loaded = true
					c.res = res
					sub.reused++
					continue
				} else if warn != "" {
					sub.storeWarns = append(sub.storeWarns, warn)
				}
			}
			c.sweep = sweeps[id]
			slots := c.sweep.Points
			c.points = make([]PointResult, slots)
			c.done = make([]bool, slots)
			c.errs = make([]error, slots)
			c.started = make([]time.Time, slots)
			c.elapsed = make([]time.Duration, slots)
			step := slots // an unsharded cell is one whole-axis job
			if spec.ShardRows {
				step = batch
			}
			for p := 0; p < slots; p += step {
				sub.queue = append(sub.queue, schedJob{sub: sub, cell: ci, point: p, count: min(step, slots-p), ji: len(sub.queue)})
				c.pending.Add(1)
			}
		}
	}
	sub.settled = make([]atomic.Bool, len(sub.queue))
	sub.leased = make(map[int]struct{})
	return sub, nil
}

// execute runs one job on a pool worker: ComputeJob, then settle, then
// jobDone when this worker won the settle.
func (sub *submission) execute(jb schedJob) {
	if sub.settled[jb.ji].Load() {
		return // a late external completion beat the requeue; nothing to do
	}
	res, err := ComputeJob(sub.ctx, jb.desc())
	if sub.settle(jb, res, err) {
		sub.jobDone(1)
	}
}

// settle is the one commit of a job's slots for every finisher: the
// local pool, Complete and Fail. Only the winner of the job's settle
// CAS writes (a requeued job can race a late external completion); it
// records the job's timing at its first slot and commits done — on
// failure, the completed part. A *PointError inside the range lands at
// its point as its inner error, which assemble wraps exactly once; any
// other failure lands at the first point. The settle that retires a
// cell's last job completes the cell on the spot, whichever holder
// settled it: Finish follows the points, as it does on the serial path,
// and the table is persisted. A failure, or a Finish error, cancels the
// submission. The caller runs jobDone on true.
func (sub *submission) settle(jb schedJob, done ExternalResult, err error) bool {
	if !sub.settled[jb.ji].CompareAndSwap(false, true) {
		return false
	}
	c := &sub.cells[jb.cell]
	c.started[jb.point] = time.Now().Add(-done.Elapsed)
	c.elapsed[jb.point] = done.Elapsed
	n, fail := len(done.Points), jb.point
	if err != nil {
		var pe *PointError
		if errors.As(err, &pe) && pe.Err != nil && pe.Point >= jb.point && pe.Point < jb.point+jb.count {
			fail, err = pe.Point, pe.Err
		}
		n = min(n, fail-jb.point)
	}
	for i, pt := range done.Points[:n] {
		c.points[jb.point+i] = pt
		c.done[jb.point+i] = true
	}
	if err != nil {
		c.errs[fail] = err
	}
	last := c.pending.Add(-1) == 0
	if last {
		sub.complete(c)
	}
	if err != nil || last && c.err != nil {
		sub.cancelFn()
	}
	return true
}

// complete assembles a cell and, when that yields its table and the
// submission has a store, persists it, recording a write failure for
// finalize to fold. It runs once per cell: in the settle that
// retires the cell's last job, or in finalize for a cell that never had
// a job (a zero-point sweep). The atomic pending count orders every
// other job's slot writes before it.
func (sub *submission) complete(c *cellRun) {
	c.assemble()
	if sub.st == nil || c.res == nil {
		return
	}
	rec := CellRecord(c.res, c.seed, store.Meta{
		Concurrency: sub.concurrency(), ShardRows: sub.spec.ShardRows, BatchRows: sub.spec.BatchRows,
		ElapsedNs: int64(c.busy()),
	})
	if err := sub.st.Put(rec); err != nil {
		c.storeErr = fmt.Errorf("experiments: %s (seed %d): persisting result: %w", c.id, c.seed, err)
	}
}

// concurrency is the worker count the submission reports and records:
// the pool size, capped at its job count, and at least 1.
func (sub *submission) concurrency() int {
	return max(1, min(sub.workers, len(sub.queue)))
}

// jobDone accounts n finished (or abandoned) job slots; retiring the
// last slot triggers finalization. The atomic counter orders every
// worker's slot writes and cell completions before the finalizer's
// reads, and finish runs on its own goroutine so the holder that
// settled the last job returns at once.
func (sub *submission) jobDone(n int) {
	if n == 0 {
		return
	}
	if sub.completed.Add(int64(n)) == int64(len(sub.queue)) {
		go sub.finish()
	}
}

// finish finalizes the submission (salvage, store verdicts, report),
// publishes the result and unregisters from the scheduler. It stops the
// abandon callback before it releases the derived context.
func (sub *submission) finish() {
	if sub.stopAbandon != nil {
		sub.stopAbandon()
	}
	sub.finalize()
	sub.cancelFn()
	close(sub.done)
	if s := sub.sched; s != nil {
		s.mu.Lock()
		delete(s.active, sub)
		s.mu.Unlock()
		s.subs.Done()
	}
}

// finalize is the single-threaded tail of a submission: slot-ordered
// salvage of the cells no settle completed, deterministic error policy,
// the fold of every cell's store verdict, and report aggregation —
// byte-for-byte the same policy the one-shot engine applied, so a
// submission's report cannot depend on what else shared the pool.
func (sub *submission) finalize() {
	cells := sub.cells
	seeds := sub.spec.Seeds
	// Every cell whose jobs all settled is already complete. A cell that
	// never had a job (a zero-point sweep) completes here; one with an
	// abandoned job is assembled for salvage only — it cannot have a
	// table, so nothing of it is persisted.
	for ci := range cells {
		switch c := &cells[ci]; {
		case c.loaded:
		case len(c.points) == 0:
			sub.complete(c)
		default:
			c.assemble()
		}
	}
	cs := metasurface.GlobalCacheStats().Sub(sub.cacheStart)
	rep := &Report{
		Seeds:       append([]int64(nil), sub.spec.Seeds...),
		Concurrency: sub.concurrency(),
		Wall:        time.Since(sub.start),
		ShardRows:   sub.spec.ShardRows,
		BatchRows:   sub.spec.BatchRows,
		CacheHits:   cs.Hits,
		CacheMisses: cs.Misses,
	}
	// Resolve the error policy deterministically: the submitter's
	// cancellation wins, then the first real (non-cancellation) cell
	// failure by slot index, then any remaining cell error.
	firstErr := sub.parent.Err()
	if firstErr == nil && sub.userCancel.Load() {
		firstErr = context.Canceled
	}
	if firstErr == nil {
		for ci := range cells {
			cerr := cells[ci].err
			if cerr == nil {
				continue
			}
			if firstErr == nil {
				firstErr = cerr
			}
			if !errors.Is(cerr, context.Canceled) {
				firstErr = cerr
				break
			}
		}
	}

	// Every freshly computed cell was persisted as it completed —
	// including completed cells of a run that failed or was cancelled
	// elsewhere, so partial progress survives and a later Resume
	// recomputes only what is actually missing. A write failure names
	// its cell and always surfaces — as the run error when nothing else
	// failed first, and as a store warning regardless, so a compute
	// failure can never mask it — but never discards the in-memory
	// results.
	rep.ReusedCells = sub.reused
	rep.StoreWarnings = sub.storeWarns
	for ci := range cells {
		c := &cells[ci]
		if c.loaded || c.res == nil {
			continue
		}
		rep.ComputedCells++
		switch {
		case c.storeErr != nil:
			rep.StoreWarnings = append(rep.StoreWarnings, c.storeErr.Error())
			if firstErr == nil {
				firstErr = c.storeErr
			}
		case sub.st != nil:
			rep.PersistedCells++
		}
	}

	// Report assembly in slot order; on failure keep completed cells (and
	// salvaged sweep prefixes) so callers can recover partial output.
	for i, id := range sub.spec.IDs {
		var perSeed []*Result
		var wall, busy time.Duration
		points := 1
		// An experiment row missing any seed is excluded from the report
		// proper, but its completed seeds must not vanish: a failure in
		// one seed's cell salvages the siblings' complete tables
		// alongside any failed cell's contiguous prefix.
		incomplete := false
		for s := range seeds {
			if cells[i*len(seeds)+s].res == nil {
				incomplete = true
				break
			}
		}
		for s := range seeds {
			c := &cells[i*len(seeds)+s]
			wall += c.span()
			busy += c.busy()
			if sub.spec.ShardRows {
				// A sharded cell reports its axis length, whatever the
				// batch size; an unsharded one stays at 1.
				points = max(points, len(c.points))
			}
			if c.res != nil {
				if incomplete {
					rep.Salvaged = append(rep.Salvaged, c.res)
				} else {
					perSeed = append(perSeed, c.res)
				}
			}
			if c.partial != nil && len(c.partial.Rows) > 0 {
				rep.Salvaged = append(rep.Salvaged, c.partial)
			}
		}
		if incomplete {
			continue // incomplete experiment row: excluded from the report
		}
		rep.Timings = append(rep.Timings, Timing{
			ID: id, Elapsed: wall, Busy: busy,
			Rows: len(perSeed[0].Rows), Points: points,
		})
		rep.Results = append(rep.Results, perSeed[0])
		if len(seeds) > 1 {
			agg, err := replicate(id, seeds, perSeed, wall)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			rep.Replicated = append(rep.Replicated, agg)
		}
	}
	sub.report, sub.err = rep, firstErr
}

// RunHandle tracks one submission: progress while it runs, cancellation,
// and the report when it finishes. Methods are safe for concurrent use.
type RunHandle struct{ sub *submission }

// Spec returns the normalized spec the submission runs: IDs resolved
// and sorted, seeds deduplicated in first-seen order and defaulted,
// batch size clamped to ≥1 (and 1 unless ShardRows is set).
func (h *RunHandle) Spec() RunSpec { return cloneSpec(h.sub.spec) }

// Done returns a channel closed when the submission has finished —
// assembled, persisted and reported.
func (h *RunHandle) Done() <-chan struct{} { return h.sub.done }

// Cancel stops the submission: unfed jobs are abandoned, in-flight jobs
// see a cancelled context, and completed cells still persist to the
// store (the salvage path), so a cancelled run's finished work survives
// for a later Resume. Safe to call repeatedly; a no-op once the
// submission finished.
func (h *RunHandle) Cancel() {
	h.sub.userCancel.Store(true)
	h.sub.cancelFn()
}

// Report blocks until the submission finishes and returns its report
// and error — exactly what Execute returns for the same spec.
func (h *RunHandle) Report() (*Report, error) {
	<-h.sub.done
	return h.sub.report, h.sub.err
}

// Progress returns a point-in-time snapshot of the submission's advance
// through the queue.
func (h *RunHandle) Progress() Progress {
	sub := h.sub
	p := Progress{
		TotalJobs:   len(sub.queue),
		DoneJobs:    int(sub.completed.Load()),
		TotalCells:  len(sub.cells),
		ReusedCells: sub.reused,
	}
	select {
	case <-sub.done:
		p.Finished = true
	default:
	}
	return p
}

// Progress is a point-in-time snapshot of one submission.
type Progress struct {
	// TotalJobs and DoneJobs count queued jobs (point ranges: one per
	// unsharded cell, one per point batch of a sharded one); DoneJobs
	// includes jobs abandoned by cancellation, so it always reaches
	// TotalJobs.
	TotalJobs, DoneJobs int
	// TotalCells is the (experiment × seed) cell count of the spec;
	// ReusedCells of those were answered from the store at layout.
	TotalCells, ReusedCells int
	// Finished reports whether the submission has fully finished (its
	// report is available).
	Finished bool
}
