// Package service is the long-lived experiment service behind
// cmd/llama-serve: an HTTP/JSON front over the experiments Scheduler
// with the durable results store as its backend. It turns the one-shot
// CLI shape into the networked-service shape the software-defined
// metasurface literature assumes — submit a run, poll its status, fetch
// its tables — while keeping the repository's determinism contract: the
// bytes served for a completed run are identical to what llama-bench
// prints for the same spec, including after a server restart, because
// results are always reconstructed from the store's cell records
// (determinism invariant 7 in ARCHITECTURE.md).
//
// Endpoints:
//
//	POST   /runs                     submit {ids, seeds, shard_rows, batch_rows, resume}
//	GET    /runs                     list runs
//	GET    /runs/{id}                status + progress
//	GET    /runs/{id}/events         live status/progress stream (server-sent events)
//	GET    /runs/{id}/result?format= fetch tables (csv, json or text; default csv)
//	DELETE /runs/{id}                cancel a live run / delete a finished run's record
//	POST   /admin/gc                 drop cells unreferenced by any run and older than the retention window
//	GET    /healthz                  liveness + run counts (503 once draining)
//
// The server is built for sustained traffic: submissions beyond
// Config.MaxQueued are refused with 429 + Retry-After instead of
// queueing without bound, result reconstruction rides the scheduler's
// priority lane so it never waits behind live compute, and run-record
// writes are sequence-versioned so a DELETE can never be undone by an
// in-flight watcher write (determinism invariant 8: lifecycle traffic
// never changes result bytes).
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/llama-surface/llama/internal/experiments"
	"github.com/llama-surface/llama/internal/fleet"
	"github.com/llama-surface/llama/internal/store"
)

// Run lifecycle states persisted in store.RunRecord.Status.
const (
	// StatusRunning marks a run whose jobs are queued or executing.
	StatusRunning = "running"
	// StatusDone marks a run that completed; its result is servable.
	StatusDone = "done"
	// StatusFailed marks a run whose engine reported an error.
	StatusFailed = "failed"
	// StatusCancelled marks a run stopped by DELETE or server shutdown;
	// its completed cells persist in the store.
	StatusCancelled = "cancelled"
	// StatusInterrupted marks a run found mid-flight when the server
	// restarted: its completed cells are in the store, so re-submitting
	// the same spec resumes instead of recomputing.
	StatusInterrupted = "interrupted"
)

// Config assembles a Server.
type Config struct {
	// Store is the durable backend for cell results and run records.
	// Required.
	Store *store.Store
	// Workers bounds the scheduler pool shared by every run; ≤0 means
	// GOMAXPROCS.
	Workers int
	// Logf, when non-nil, receives operational log lines (submissions,
	// completions, persistence failures). nil discards them.
	Logf func(format string, args ...any)
	// Now supplies run-record timestamps; nil means time.Now. Tests pin
	// it for stable records.
	Now func() time.Time
	// MaxQueued bounds the submissions in flight (queued + executing)
	// at once; further POST /runs get 429 + Retry-After until one
	// finishes. ≤0 means unbounded.
	MaxQueued int
	// Retention is the POST /admin/gc policy: cells unreferenced by any
	// run record and older than this are removed. ≤0 disables GC (the
	// endpoint answers 409).
	Retention time.Duration
	// EventPoll is the sampling interval for /runs/{id}/events progress
	// frames; ≤0 means 200ms. Terminal transitions are pushed promptly
	// regardless.
	EventPoll time.Duration
	// EventWriteTimeout bounds each /runs/{id}/events frame write: a
	// client that stops reading for this long has its stream torn down
	// instead of pinning the handler goroutine forever. ≤0 means 10s.
	EventWriteTimeout time.Duration
	// Fleet mounts the distributed-worker endpoints (/fleet/lease,
	// /fleet/heartbeat, /fleet/complete, /fleet/stats): llama-worker
	// processes lease shard jobs from this server and post rows back.
	// Results stay byte-identical to a single-process run for any fleet
	// size or failure schedule (determinism invariant 9).
	Fleet bool
	// FleetTTL is the lease heartbeat deadline; a worker silent for this
	// long loses its lease and the job is reassigned. ≤0 means 10s.
	// Ignored unless Fleet is set.
	FleetTTL time.Duration
	// FleetOnly starts no local compute workers: every job is executed
	// by fleet workers, and the server spends its CPU on serving.
	// Requires Fleet.
	FleetOnly bool
}

// Server is the HTTP service: one shared Scheduler, one Store, and the
// run registry mapping IDs to live handles and durable records. It
// implements http.Handler.
type Server struct {
	st         *store.Store
	sched      *experiments.Scheduler
	mux        *http.ServeMux
	logf       func(format string, args ...any)
	now        func() time.Time
	maxQueued  int
	retention  time.Duration
	eventPoll  time.Duration
	eventWrite time.Duration

	// fleetc is the lease coordinator when Config.Fleet is set; reapStop
	// ends its periodic expiry sweep. The coordinator runs on the real
	// clock even when Config.Now is pinned: lease deadlines police live
	// worker processes, not record timestamps.
	fleetc   *fleet.Coordinator
	reapStop chan struct{}
	reapDone chan struct{}

	mu       sync.Mutex
	runs     map[string]*run
	nextID   int
	live     int // submissions in flight, bounded by maxQueued
	closed   bool
	watchers sync.WaitGroup
}

// run is one submission's service-side state: the durable record plus,
// while the server that accepted it is alive, the live handle. Results
// are never cached in memory — every result request reconstructs the
// report from the store (see reportFor), so a long-lived server's
// footprint is bounded by the runs in flight, not the runs it has ever
// served.
//
// Record writes are ordered by (seq, persisted, deleted), all guarded
// by the server mutex: every in-memory mutation bumps seq, persistRun
// writes only when seq is ahead of persisted, and deleted is a
// tombstone no later write may cross. persistMu serializes the disk
// writes themselves (and DELETE's removal) without holding the server
// mutex across I/O. Without this ordering a DELETE racing the
// watcher's terminal write resurrects the record on disk.
type run struct {
	rec    *store.RunRecord
	handle *experiments.RunHandle

	seq       int
	persisted int
	deleted   bool
	persistMu sync.Mutex
	// finished is closed when the run reaches a terminal status, so
	// event streams push the final frame promptly instead of waiting
	// out a poll tick.
	finished chan struct{}
}

// New builds a Server over cfg.Store, re-listing every run the store
// remembers. Runs recorded as running belong to a previous process —
// they are marked interrupted (their completed cells are already in the
// store, so re-submitting the same spec resumes rather than
// recomputes). Close the server with Shutdown.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, errors.New("service: Config.Store is required")
	}
	if cfg.FleetOnly && !cfg.Fleet {
		return nil, errors.New("service: Config.FleetOnly requires Config.Fleet")
	}
	s := &Server{
		st: cfg.Store,
		sched: experiments.NewScheduler(experiments.SchedulerConfig{
			Workers: cfg.Workers, Store: cfg.Store, LeaseOnly: cfg.FleetOnly,
		}),
		logf:       cfg.Logf,
		now:        cfg.Now,
		maxQueued:  cfg.MaxQueued,
		retention:  cfg.Retention,
		eventPoll:  cfg.EventPoll,
		eventWrite: cfg.EventWriteTimeout,
		runs:       make(map[string]*run),
	}
	if s.logf == nil {
		s.logf = func(string, ...any) {}
	}
	if s.now == nil {
		s.now = time.Now
	}
	if s.eventPoll <= 0 {
		s.eventPoll = 200 * time.Millisecond
	}
	if s.eventWrite <= 0 {
		s.eventWrite = 10 * time.Second
	}
	if cfg.Fleet {
		var err error
		s.fleetc, err = fleet.NewCoordinator(fleet.Config{
			Sched: s.sched, TTL: cfg.FleetTTL, Logf: s.logf,
		})
		if err != nil {
			s.sched.Close()
			return nil, fmt.Errorf("service: %w", err)
		}
	}
	recs, err := cfg.Store.ListRuns()
	if err != nil {
		s.sched.Close()
		return nil, fmt.Errorf("service: %w", err)
	}
	// Every re-listed run is terminal (running ones were just marked
	// interrupted), so their finished channels start closed and their
	// on-disk records are already current (persisted == seq).
	relisted := make(chan struct{})
	close(relisted)
	for _, rec := range recs {
		if rec.Status == StatusRunning {
			rec.Status = StatusInterrupted
			rec.Error = "server stopped while the run was in flight; completed cells persist — resubmit the spec to resume"
			if err := cfg.Store.PutRun(rec); err != nil {
				s.logf("service: marking %s interrupted: %v", rec.ID, err)
			}
		}
		s.runs[rec.ID] = &run{rec: rec, seq: 1, persisted: 1, finished: relisted}
		if n := runNumber(rec.ID); n >= s.nextID {
			s.nextID = n + 1
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("POST /runs", s.handleSubmit)
	mux.HandleFunc("GET /runs", s.handleList)
	mux.HandleFunc("GET /runs/{id}", s.handleStatus)
	mux.HandleFunc("GET /runs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /runs/{id}/result", s.handleResult)
	mux.HandleFunc("DELETE /runs/{id}", s.handleDelete)
	mux.HandleFunc("POST /admin/gc", s.handleGC)
	if s.fleetc != nil {
		// The fleet handler's patterns already carry the /fleet prefix.
		mux.Handle("/fleet/", fleet.Handler(s.fleetc))
		// Expiry is otherwise checked lazily on fleet calls; the periodic
		// sweep guarantees a dead fleet's leases still requeue (and local
		// workers pick them up) even when no worker ever calls again.
		s.reapStop = make(chan struct{})
		s.reapDone = make(chan struct{})
		go s.reapLeases()
	}
	s.mux = mux
	return s, nil
}

// reapLeases expires overdue fleet leases on a timer until Shutdown.
func (s *Server) reapLeases() {
	defer close(s.reapDone)
	period := s.fleetc.TTL() / 2
	if period <= 0 {
		period = time.Second
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-s.reapStop:
			return
		case <-t.C:
			s.fleetc.Reap()
		}
	}
}

// Fleet returns the lease coordinator, nil unless Config.Fleet was
// set. Tests and operators use it for stats.
//
//lint:allow unused read by the benchmark harness under _perfbench, which the tree walk skips, for fleet stats
func (s *Server) Fleet() *fleet.Coordinator { return s.fleetc }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Shutdown drains the server: no new submissions are accepted, every
// live run is cancelled (the scheduler persists their completed cells —
// the salvage path), run records are updated, and the worker pool is
// released. It returns ctx.Err() if the drain outlives ctx. The HTTP
// listener itself is the caller's to stop (http.Server.Shutdown) before
// calling this.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	var live []*experiments.RunHandle
	for _, rn := range s.runs {
		if rn.handle != nil {
			live = append(live, rn.handle)
		}
	}
	s.mu.Unlock()
	if s.fleetc != nil {
		close(s.reapStop)
		<-s.reapDone
		s.fleetc.Close() // outstanding leases requeue, then cancellation settles them
	}
	for _, h := range live {
		h.Cancel()
	}
	done := make(chan struct{})
	go func() {
		s.watchers.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	s.sched.Close()
	return nil
}

// runNumber parses the numeric suffix of a "run-N" ID, -1 otherwise.
func runNumber(id string) int {
	rest, ok := strings.CutPrefix(id, "run-")
	if !ok {
		return -1
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 0 {
		return -1
	}
	return n
}

// submitRequest is the POST /runs body. Zero values mean: every
// registered experiment, seed {1}, unsharded, store reuse on. A
// repeated ID or seed counts once.
type submitRequest struct {
	IDs       []string `json:"ids,omitempty"`
	Seeds     []int64  `json:"seeds,omitempty"`
	ShardRows bool     `json:"shard_rows,omitempty"`
	BatchRows int      `json:"batch_rows,omitempty"`
	// Resume defaults to true: the service exists to reuse the store.
	// Outputs are bit-identical either way (invariant 6), so disabling
	// it only forces recomputation.
	Resume *bool `json:"resume,omitempty"`
}

// runStatus is the status JSON served for one run.
type runStatus struct {
	ID             string        `json:"id"`
	Status         string        `json:"status"`
	Spec           store.RunSpec `json:"spec"`
	Error          string        `json:"error,omitempty"`
	Progress       *progressJSON `json:"progress,omitempty"`
	ReusedCells    int           `json:"reused_cells,omitempty"`
	ComputedCells  int           `json:"computed_cells,omitempty"`
	CreatedUnixNs  int64         `json:"created_unix_ns"`
	FinishedUnixNs int64         `json:"finished_unix_ns,omitempty"`
	ResultURL      string        `json:"result_url,omitempty"`
}

// progressJSON is the live job-slot progress of a running submission.
type progressJSON struct {
	TotalJobs int `json:"total_jobs"`
	DoneJobs  int `json:"done_jobs"`
}

// handleSubmit accepts a run spec, records it, and submits it to the
// shared scheduler. Admission is bounded: when Config.MaxQueued
// submissions are already in flight, the request is refused with 429 +
// Retry-After instead of queueing without bound.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	body := http.MaxBytesReader(w, r.Body, 1<<20)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeErr(w, http.StatusRequestEntityTooLarge, "request body exceeds the 1 MiB limit")
			return
		}
		writeErr(w, http.StatusBadRequest, fmt.Sprintf("invalid request body: %v", err))
		return
	}
	spec := experiments.RunSpec{
		IDs:       req.IDs,
		Seeds:     req.Seeds,
		ShardRows: req.ShardRows,
		BatchRows: req.BatchRows,
		Resume:    req.Resume == nil || *req.Resume,
	}
	// Reserve an admission slot before touching the scheduler so the
	// in-flight bound can never be overshot by concurrent submitters.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		writeErr(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	if s.maxQueued > 0 && s.live >= s.maxQueued {
		n := s.live
		s.mu.Unlock()
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusTooManyRequests,
			fmt.Sprintf("%d submissions already in flight (limit %d); retry shortly", n, s.maxQueued))
		return
	}
	s.live++
	s.mu.Unlock()
	release := func() {
		s.mu.Lock()
		s.live--
		s.mu.Unlock()
	}
	// Submissions live on the server's lifetime, not the request's: the
	// response returns immediately while the run executes, so the run
	// must not die with the POST context.
	//lint:allow context runs outlive their POST request by design; Shutdown cancels them through the scheduler, not a request context
	handle, err := s.sched.Submit(context.Background(), spec)
	if err != nil {
		release()
		if errors.Is(err, experiments.ErrSchedulerClosed) {
			writeErr(w, http.StatusServiceUnavailable, "server is shutting down")
			return
		}
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		// The submission raced Shutdown past the admission check. Cancel
		// AND drain it so nothing outlives the 503 — Shutdown's snapshot
		// of live handles was already taken, so nobody else will wait
		// this one out.
		handle.Cancel()
		<-handle.Done()
		release()
		writeErr(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	id := fmt.Sprintf("run-%06d", s.nextID)
	s.nextID++
	norm := handle.Spec()
	rec := &store.RunRecord{
		ID: id,
		Spec: store.RunSpec{
			IDs: norm.IDs, Seeds: norm.Seeds,
			ShardRows: norm.ShardRows, BatchRows: norm.BatchRows, Resume: norm.Resume,
		},
		Status:        StatusRunning,
		CreatedUnixNs: s.now().UnixNano(),
	}
	rn := &run{rec: rec, handle: handle, seq: 1, finished: make(chan struct{})}
	s.runs[id] = rn
	s.watchers.Add(1)
	s.mu.Unlock()
	// The initial record lands on disk before the watcher starts, so the
	// watcher's terminal write (seq 2) is always ordered after it.
	s.persistRun(rn)
	go s.watch(rn)
	s.logf("service: %s submitted (%d experiments × %d seeds)", id, len(norm.IDs), len(norm.Seeds))
	w.Header().Set("Location", "/runs/"+id)
	writeJSON(w, http.StatusCreated, s.runStatusOf(rn))
}

// persistRun writes rn's record to the store iff its in-memory state is
// ahead of what is on disk and the run has not been deleted. persistMu
// serializes writers per run; the seq/persisted pair makes each write
// at-most-once per mutation; the deleted tombstone (checked under the
// same mutex that sets it) guarantees no write starts after DELETE has
// removed the record — and DELETE in turn takes persistMu before
// removing, so it also cannot overtake a write already in flight.
func (s *Server) persistRun(rn *run) {
	rn.persistMu.Lock()
	defer rn.persistMu.Unlock()
	s.mu.Lock()
	if rn.deleted || rn.seq <= rn.persisted {
		s.mu.Unlock()
		return
	}
	seq := rn.seq
	cp := *rn.rec
	s.mu.Unlock()
	if err := s.st.PutRun(&cp); err != nil {
		// The run still executes and its cells still persist; only the
		// run-level metadata is at risk. Say so rather than killing the
		// submission. persisted still advances: a failed write is not
		// retried until the next mutation bumps seq.
		s.logf("service: persisting run record %s: %v", cp.ID, err)
	}
	s.mu.Lock()
	rn.rec.Path = cp.Path
	if seq > rn.persisted {
		rn.persisted = seq
	}
	s.mu.Unlock()
}

// watch waits for one submission to finish, then updates its durable
// record and releases the run's admission slot. The terminal write
// goes through persistRun, so it is ordered against the initial write
// and suppressed entirely if the run was deleted in the meantime.
func (s *Server) watch(rn *run) {
	defer s.watchers.Done()
	rep, err := rn.handle.Report()
	s.mu.Lock()
	rec := rn.rec
	rec.FinishedUnixNs = s.now().UnixNano()
	switch {
	case err == nil:
		rec.Status = StatusDone
	case errors.Is(err, context.Canceled):
		rec.Status = StatusCancelled
		rec.Error = err.Error()
	default:
		rec.Status = StatusFailed
		rec.Error = err.Error()
	}
	if rep != nil {
		rec.ReusedCells = rep.ReusedCells
		rec.ComputedCells = rep.ComputedCells
	}
	rn.seq++
	s.live--
	id, status := rec.ID, rec.Status
	s.mu.Unlock()
	close(rn.finished)
	s.persistRun(rn)
	s.logf("service: %s %s", id, status)
}

// runStatusOf builds the status JSON for one run (locks internally).
func (s *Server) runStatusOf(rn *run) runStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := rn.rec
	st := runStatus{
		ID:             rec.ID,
		Status:         rec.Status,
		Spec:           rec.Spec,
		Error:          rec.Error,
		ReusedCells:    rec.ReusedCells,
		ComputedCells:  rec.ComputedCells,
		CreatedUnixNs:  rec.CreatedUnixNs,
		FinishedUnixNs: rec.FinishedUnixNs,
	}
	if rec.Status == StatusDone {
		st.ResultURL = "/runs/" + rec.ID + "/result"
	}
	if rn.handle != nil && rec.Status == StatusRunning {
		p := rn.handle.Progress()
		st.Progress = &progressJSON{TotalJobs: p.TotalJobs, DoneJobs: p.DoneJobs}
	}
	return st
}

// lookup resolves a run ID, or writes a 404.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*run, bool) {
	id := r.PathValue("id")
	s.mu.Lock()
	rn, ok := s.runs[id]
	s.mu.Unlock()
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Sprintf("no run %q", id))
		return nil, false
	}
	return rn, true
}

// handleList serves every known run's status, sorted by ID.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ids := make([]string, 0, len(s.runs))
	for id := range s.runs {
		ids = append(ids, id)
	}
	s.mu.Unlock()
	sort.Strings(ids)
	out := make([]runStatus, 0, len(ids))
	for _, id := range ids {
		s.mu.Lock()
		rn := s.runs[id]
		s.mu.Unlock()
		if rn != nil {
			out = append(out, s.runStatusOf(rn))
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"runs": out})
}

// handleStatus serves one run's status and live progress.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	rn, ok := s.lookup(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, s.runStatusOf(rn))
}

// handleResult serves a completed run's tables. The bytes are exactly
// what llama-bench prints for the same spec — both render through
// Report.WriteTables — and a restarted server reconstructs the report
// from the store's cell records, so the bytes survive restarts too
// (invariant 7).
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	rn, ok := s.lookup(w, r)
	if !ok {
		return
	}
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "csv"
	}
	var contentType string
	switch format {
	case "csv":
		contentType = "text/csv; charset=utf-8"
	case "json":
		contentType = "application/json"
	case "text":
		contentType = "text/plain; charset=utf-8"
	default:
		writeErr(w, http.StatusBadRequest, fmt.Sprintf("unknown format %q (want csv, json or text)", format))
		return
	}
	s.mu.Lock()
	status := rn.rec.Status
	s.mu.Unlock()
	if status != StatusDone {
		writeErr(w, http.StatusConflict, fmt.Sprintf("run %s is %s; results are served once it is done", rn.rec.ID, status))
		return
	}
	rep, err := s.reportFor(r.Context(), rn)
	if err != nil {
		if errors.Is(err, experiments.ErrSchedulerClosed) {
			writeErr(w, http.StatusServiceUnavailable, "server is shutting down")
			return
		}
		writeErr(w, http.StatusInternalServerError, fmt.Sprintf("reloading %s from the store: %v", rn.rec.ID, err))
		return
	}
	// Render to a buffer first so a mid-render failure becomes a clean
	// error response instead of a torn body.
	var buf bytes.Buffer
	if err := rep.WriteTables(&buf, format); err != nil {
		writeErr(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(http.StatusOK)
	_, _ = buf.WriteTo(w)
}

// reportFor reconstructs the run's report from the store through the
// scheduler, forcing Resume: every cell of a done run is already
// persisted, so the engine decodes rather than recomputes, and
// invariant 6 makes the reconstructed bytes identical to the original
// run's — whether this process computed the run or inherited it across
// a restart. Rebuilding per request (instead of caching reports in
// memory) keeps a long-lived server's footprint bounded; the store IS
// the result cache. The reconstruction rides the scheduler's priority
// lane: fully-persisted runs decode without touching the worker pool,
// so a result fetch returns promptly even when the pool is saturated
// with live compute.
func (s *Server) reportFor(ctx context.Context, rn *run) (*experiments.Report, error) {
	s.mu.Lock()
	spec := rn.rec.Spec
	s.mu.Unlock()
	handle, err := s.sched.SubmitPriority(ctx, experiments.RunSpec{
		IDs: spec.IDs, Seeds: spec.Seeds,
		ShardRows: spec.ShardRows, BatchRows: spec.BatchRows,
		Resume: true,
	})
	if err != nil {
		return nil, err
	}
	return handle.Report()
}

// handleDelete cancels a live run (202; its record then reads
// cancelled, with completed cells persisted) or deletes a finished
// run's record (204; cell records stay, they are shared across runs).
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	rn, ok := s.lookup(w, r)
	if !ok {
		return
	}
	s.mu.Lock()
	if rn.deleted {
		// A concurrent DELETE won the race after our lookup.
		id := rn.rec.ID
		s.mu.Unlock()
		writeErr(w, http.StatusNotFound, fmt.Sprintf("no run %q", id))
		return
	}
	live := rn.handle != nil && rn.rec.Status == StatusRunning
	id := rn.rec.ID
	if !live {
		// Tombstone under the same lock that guards seq/persisted: any
		// persistRun from here on is a no-op, so the record cannot be
		// resurrected after removal.
		rn.deleted = true
		delete(s.runs, id)
	}
	s.mu.Unlock()
	if live {
		rn.handle.Cancel()
		writeJSON(w, http.StatusAccepted, map[string]any{"id": id, "status": "cancelling"})
		return
	}
	// persistMu orders the removal after any record write already in
	// flight (the tombstone stops all later ones).
	rn.persistMu.Lock()
	err := s.st.DeleteRun(id)
	rn.persistMu.Unlock()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.logf("service: %s deleted", id)
	w.WriteHeader(http.StatusNoContent)
}

// handleHealthz is the liveness probe: the run registry's size doubles
// as a cheap functional check that the store was listable at startup.
// Once Shutdown begins the probe answers 503 — load balancers key on
// the status code, and a draining server must stop receiving traffic.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	n := len(s.runs)
	closed := s.closed
	s.mu.Unlock()
	code := http.StatusOK
	if closed {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{"ok": !closed, "runs": n, "store": s.st.Dir()})
}

// handleGC removes cells unreferenced by any run record and older than
// the configured retention window (Config.Retention / llama-serve
// -retention). Referenced and recent cells always survive, so GC never
// changes the bytes any listed run serves (invariant 8).
func (s *Server) handleGC(w http.ResponseWriter, r *http.Request) {
	if s.retention <= 0 {
		writeErr(w, http.StatusConflict, "gc is disabled: start the server with a retention window (llama-serve -retention)")
		return
	}
	res, err := s.st.GC(store.GCPolicy{MinAge: s.retention, Now: s.now()})
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.logf("service: gc removed %d/%d cells (%d bytes)", res.Removed, res.Scanned, res.RemovedBytes)
	writeJSON(w, http.StatusOK, res)
}

// terminalStatus reports whether a run can no longer change status.
func terminalStatus(status string) bool { return status != StatusRunning }

// handleEvents streams one run's lifecycle as server-sent events: a
// "status" frame immediately and on every status change (including a
// prompt terminal frame via the run's finished channel), a "progress"
// frame whenever the sampled job counters move, and an SSE comment as
// keepalive on quiet ticks. Every write carries a deadline
// (Config.EventWriteTimeout) — the keepalives guarantee a write
// happens each poll tick, so a client that stalls without closing its
// connection tears the stream down within timeout+poll instead of
// pinning this goroutine for the run's lifetime. The stream ends with
// the terminal status frame, when the client goes away, or on the
// first failed write.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	rn, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if _, ok := w.(http.Flusher); !ok {
		writeErr(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	// Deadlines use the wall clock even when s.now is pinned: they bound
	// real network writes, not record timestamps. A transport that cannot
	// set deadlines (ErrNotSupported) still streams, it just keeps the
	// old unbounded behavior.
	rc := http.NewResponseController(w)
	push := func(frame []byte) error {
		if err := rc.SetWriteDeadline(time.Now().Add(s.eventWrite)); err != nil && !errors.Is(err, http.ErrNotSupported) {
			return err
		}
		if _, err := w.Write(frame); err != nil {
			return err
		}
		return rc.Flush()
	}
	writeEvent := func(event string, v any) error {
		data, err := json.Marshal(v)
		if err != nil {
			return nil // unserializable frame: skip it, keep the stream
		}
		return push(fmt.Appendf(nil, "event: %s\ndata: %s\n\n", event, data))
	}
	cur := s.runStatusOf(rn)
	if writeEvent("status", cur) != nil || terminalStatus(cur.Status) {
		return
	}
	lastStatus := cur.Status
	lastDone := -1
	if cur.Progress != nil {
		lastDone = cur.Progress.DoneJobs
	}
	ticker := time.NewTicker(s.eventPoll)
	defer ticker.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-rn.finished:
			_ = writeEvent("status", s.runStatusOf(rn))
			return
		case <-ticker.C:
			cur = s.runStatusOf(rn)
			switch {
			case cur.Status != lastStatus:
				lastStatus = cur.Status
				if writeEvent("status", cur) != nil || terminalStatus(cur.Status) {
					return
				}
			case cur.Progress != nil && cur.Progress.DoneJobs != lastDone:
				lastDone = cur.Progress.DoneJobs
				if writeEvent("progress", cur.Progress) != nil {
					return
				}
			default:
				if push([]byte(": keepalive\n\n")) != nil {
					return
				}
			}
		}
	}
}

// writeJSON emits one JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeErr emits one JSON error response.
func writeErr(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
