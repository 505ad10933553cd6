// Command llama-worker is a fleet compute process: it joins a
// llama-serve instance started with -fleet, leases point-range jobs over
// HTTP pull (POST /fleet/lease), recomputes each job from its pure
// description with the local experiment registry, heartbeats the lease
// while computing, and posts the rows back (POST /fleet/complete). Add
// workers to make a run's wall-clock shrink; kill them freely — a
// worker that dies mid-job simply misses its heartbeat deadline and
// the coordinator reassigns the job, with served bytes identical
// either way (determinism invariant 9).
//
// Usage:
//
//	llama-worker -coordinator http://host:8080               join a fleet
//	llama-worker -coordinator URL -name worker-a             name it in coordinator logs
//	llama-worker -coordinator URL -store DIR                 warm-start response tables from a shared store
//	llama-worker -coordinator URL -poll 100ms                idle lease-poll backoff
//
// With -store DIR the worker warm-starts its per-design response tables
// from DIR/tables (and persists the grown tables on exit), and reports
// its warm-start import counts and live cache hit rate to the
// coordinator — visible per worker under GET /fleet/stats. It writes no
// cell: the coordinator persists each cell as its last job settles.
//
// The coordinator and its workers must speak the same lease wire
// version. A coordinator of another version (or one built before the
// wire was versioned) makes the worker exit 1 with a message naming
// both versions; a server started without -fleet is reported as having
// no fleet endpoints on every poll.
//
// SIGINT/SIGTERM stops the loop after the in-flight job; a harder kill
// is always safe (that is the point of leases).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/llama-surface/llama/internal/experiments"
	"github.com/llama-surface/llama/internal/fleet"
	"github.com/llama-surface/llama/internal/metasurface"
	"github.com/llama-surface/llama/internal/store"
)

func main() {
	var (
		coordinator = flag.String("coordinator", "", "base URL of the llama-serve -fleet instance to join (required)")
		name        = flag.String("name", "", "worker name shown in coordinator logs (default worker-<pid>)")
		storeDir    = flag.String("store", "", "optional shared results store: response tables are warm-started from it and the grown tables saved back on exit (cells are persisted by the coordinator)")
		poll        = flag.Duration("poll", 200*time.Millisecond, "idle backoff between lease attempts when the coordinator has no work")
	)
	flag.Parse()
	if *coordinator == "" {
		fatal(errors.New("-coordinator URL is required: the llama-serve instance to lease jobs from"))
	}
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unknown arguments %v", flag.Args()))
	}
	if *name == "" {
		*name = fmt.Sprintf("worker-%d", os.Getpid())
	}
	var st *store.Store
	warmTables, warmEntries := 0, 0
	if *storeDir != "" {
		var err error
		if st, err = store.Open(*storeDir); err != nil {
			fatal(err)
		}
		// Warm-start the response tables so this worker's first jobs skip
		// physics any previous process already computed.
		var warns []string
		warmTables, warmEntries, warns = experiments.LoadResponseTables(st)
		for _, warn := range warns {
			log.Printf("llama-worker: %s", warn)
		}
		log.Printf("llama-worker: warm-started %d response table(s), %d entries", warmTables, warmEntries)
	}
	w, err := fleet.NewWorker(fleet.WorkerConfig{
		Client: &fleet.Client{Base: *coordinator},
		Name:   *name,
		Poll:   *poll,
		Logf:   log.Printf,
		Tables: func() *fleet.WorkerTables {
			cs := metasurface.GlobalCacheStats()
			return &fleet.WorkerTables{
				WarmTables:  warmTables,
				WarmEntries: warmEntries,
				Hits:        cs.Hits,
				Misses:      cs.Misses,
				HitRate:     cs.HitRate(),
			}
		},
	})
	if err != nil {
		fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	log.Printf("llama-worker: %s joining fleet at %s", *name, *coordinator)
	if err := w.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
		fatal(err)
	}
	if st != nil {
		// Persist the tables grown during this worker's lifetime so the
		// next process sharing the store starts warm.
		nt, ne, warns := experiments.SaveResponseTables(st)
		for _, warn := range warns {
			log.Printf("llama-worker: %s", warn)
		}
		log.Printf("llama-worker: persisted %d response table(s), %d entries", nt, ne)
	}
	log.Printf("llama-worker: %s stopped after %d jobs", *name, w.Jobs())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "llama-worker:", err)
	os.Exit(1)
}
