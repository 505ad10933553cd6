package fleet

// Worker is the pull loop a fleet process runs (cmd/llama-worker):
// lease a job, heartbeat it at TTL/3 while computing, post the result,
// repeat. Compute is pure in the job desc (experiments.ComputeJob), so
// any worker — or the coordinator recomputing after this worker's
// death — produces the same bytes.

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"github.com/llama-surface/llama/internal/experiments"
	"github.com/llama-surface/llama/internal/store"
)

// WorkerConfig configures a Worker.
type WorkerConfig struct {
	// Client reaches the coordinator. Required.
	Client *Client
	// Name identifies the worker in coordinator logs; defaults to
	// "worker".
	Name string
	// Store, when non-nil, persists the cell of every job that covers
	// its sweep's whole axis directly (shared filesystem deployments),
	// assembled with experiments.AssembleCell: every unsharded cell, and
	// a sharded cell whose one batch spans the axis (a one-point sweep,
	// or a batch at least the axis length). A job covering only part of
	// the axis is a partial cell and flows back only through the
	// coordinator, whose finalize persists it. Duplicate cell writes
	// are safe: every writer builds the record with
	// experiments.CellRecord, so the tables are equal (only Meta
	// differs), writes are atomic, and Store.Put confirms a record
	// whose table is already stored instead of rewriting it (see
	// internal/store's cross-process notes).
	Store *store.Store
	// Poll is the idle backoff between lease attempts when the
	// coordinator has no work; defaults to 200ms.
	Poll time.Duration
	// Logf, when non-nil, receives one line per job.
	Logf func(format string, args ...any)
	// Compute overrides the job executor; defaults to
	// experiments.ComputeJob. Tests inject hangs and failures here.
	Compute func(ctx context.Context, d experiments.JobDesc) (experiments.ExternalResult, error)
	// Tables, when non-nil, is consulted before each lease request and
	// its report piggybacked to the coordinator (GET /fleet/stats shows
	// the latest per worker). cmd/llama-worker wires it to the process's
	// live response-table stats plus the warm-start import counts.
	Tables func() *WorkerTables
}

// Worker runs the fleet pull loop against one coordinator.
type Worker struct {
	cfg  WorkerConfig
	jobs atomic.Int64
}

// NewWorker validates cfg and returns a worker ready to Run.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Client == nil {
		return nil, errors.New("fleet: WorkerConfig.Client is required")
	}
	if cfg.Name == "" {
		cfg.Name = "worker"
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 200 * time.Millisecond
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.Compute == nil {
		cfg.Compute = experiments.ComputeJob
	}
	return &Worker{cfg: cfg}, nil
}

// Jobs returns how many jobs this worker has completed or failed.
func (w *Worker) Jobs() int64 { return w.jobs.Load() }

// Run pulls and executes jobs until ctx is cancelled; it returns
// ctx.Err() then. A coordinator of another wire version ends the loop
// with its *VersionError. Other coordinator errors (connection refused
// during a restart, 5xx) back off and retry rather than kill the loop.
func (w *Worker) Run(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var wt *WorkerTables
		if w.cfg.Tables != nil {
			wt = w.cfg.Tables()
		}
		grant, ok, err := w.cfg.Client.Lease(w.cfg.Name, wt)
		var verr *VersionError
		if errors.As(err, &verr) {
			return err
		}
		if err != nil {
			w.cfg.Logf("fleet worker %s: lease: %v (retrying)", w.cfg.Name, err)
			if !sleepCtx(ctx, w.cfg.Poll) {
				return ctx.Err()
			}
			continue
		}
		if !ok {
			if !sleepCtx(ctx, w.cfg.Poll) {
				return ctx.Err()
			}
			continue
		}
		w.runJob(ctx, grant)
		w.jobs.Add(1)
	}
}

// runJob computes one granted job under a heartbeat, then posts its
// result or failure.
func (w *Worker) runJob(ctx context.Context, g Grant) {
	w.cfg.Logf("fleet worker %s: %s under %s", w.cfg.Name, g.Desc, g.ID)
	// The compute context dies with the lease: once a heartbeat comes
	// back "expired" the job has been requeued, so burning more CPU on
	// it only produces a duplicate the coordinator will drop anyway.
	jctx, cancel := context.WithCancel(ctx)
	defer cancel()
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		period := g.TTL / 3
		if period <= 0 {
			period = time.Millisecond
		}
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-jctx.Done():
				return
			case <-t.C:
				if err := w.cfg.Client.Heartbeat(g.ID); errors.Is(err, ErrLeaseExpired) || errors.Is(err, ErrUnknownLease) {
					w.cfg.Logf("fleet worker %s: lost lease %s: %v", w.cfg.Name, g.ID, err)
					cancel()
					return
				}
			}
		}
	}()
	res, err := w.cfg.Compute(jctx, g.Desc)
	lost := jctx.Err() != nil // read before the cancel below, which always sets it
	cancel()
	<-hbDone
	if err != nil {
		if lost {
			// Lost the lease or the worker is shutting down: either way the
			// job is not failed, just abandoned — the lease expires and the
			// coordinator reassigns it. Reporting the cancellation as a
			// worker failure here would wrongly fail the whole run on a
			// clean Ctrl-C.
			w.cfg.Logf("fleet worker %s: abandoning %s: %v", w.cfg.Name, g.Desc, err)
			return
		}
		w.cfg.Logf("fleet worker %s: %s failed: %v", w.cfg.Name, g.Desc, err)
		if err := w.cfg.Client.Fail(g.ID, g.Desc, err); err != nil {
			w.cfg.Logf("fleet worker %s: reporting failure for %s: %v", w.cfg.Name, g.ID, err)
		}
		return
	}
	if w.cfg.Store != nil {
		if cell, ok := experiments.AssembleCell(g.Desc, res.Points); ok {
			rec := experiments.CellRecord(cell, g.Desc.Seed, store.Meta{
				Concurrency: 1, ElapsedNs: int64(res.Elapsed),
			})
			if perr := w.cfg.Store.Put(rec); perr != nil {
				w.cfg.Logf("fleet worker %s: persisting %s: %v", w.cfg.Name, g.Desc, perr)
			}
		}
	}
	if err := w.cfg.Client.Complete(g.ID, res); err != nil {
		w.cfg.Logf("fleet worker %s: completing %s: %v", w.cfg.Name, g.ID, err)
	}
}

// sleepCtx sleeps d or until ctx is done; it reports whether the sleep
// ran its full course.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
