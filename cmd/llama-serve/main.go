// Command llama-serve is the long-lived experiment service: an
// HTTP/JSON front over the experiment scheduler with the durable
// results store as its backend. Where llama-bench computes a run and
// exits, llama-serve accepts runs over HTTP, executes them on one
// shared worker pool, persists every completed (experiment, seed) cell
// into the store, and serves results that are byte-identical to
// llama-bench's output for the same spec — including after a restart,
// because completed runs are re-served from the store.
//
// Usage:
//
//	llama-serve -store DIR                   serve on :8080 backed by DIR
//	llama-serve -store DIR -addr :9000       choose the listen address
//	llama-serve -store DIR -workers 4        bound the shared worker pool
//	llama-serve -store DIR -drain 1m         bound the shutdown drain
//	llama-serve -store DIR -max-queued 64    refuse submissions past the bound (429)
//	llama-serve -store DIR -retention 168h   enable POST /admin/gc with a week's retention
//	llama-serve -store DIR -fleet            accept llama-worker processes (lease pull)
//	llama-serve -store DIR -fleet -lease-ttl 5s -fleet-only
//	                                         fleet does all compute; silent workers
//	                                         lose their lease after 5s
//
// Endpoints (see internal/service):
//
//	POST   /runs                      {"ids":["fig15"],"seeds":[1,2,3]}
//	GET    /runs                      list runs
//	GET    /runs/{id}                 status + progress
//	GET    /runs/{id}/events          live status/progress stream (SSE)
//	GET    /runs/{id}/result?format=csv|json|text
//	DELETE /runs/{id}                 cancel / delete
//	POST   /admin/gc                  drop unreferenced cells older than -retention
//	GET    /healthz                   liveness (503 while draining)
//	POST   /fleet/lease               (-fleet) grant a shard job to a worker
//	POST   /fleet/heartbeat           (-fleet) keep a lease alive
//	POST   /fleet/complete            (-fleet) deliver a leased job's rows
//	GET    /fleet/stats               (-fleet) lease lifecycle counters
//
// SIGINT/SIGTERM drains gracefully: in-flight runs are cancelled and
// their completed cells persist to the store, so a later identical
// submission resumes instead of recomputing.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/llama-surface/llama/internal/experiments"
	"github.com/llama-surface/llama/internal/service"
	"github.com/llama-surface/llama/internal/store"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "HTTP listen address")
		storeDir  = flag.String("store", "", "durable results store directory (created if missing; required)")
		workers   = flag.Int("workers", 0, "worker pool width shared by all runs (0 = GOMAXPROCS)")
		drain     = flag.Duration("drain", 30*time.Second, "graceful-shutdown bound: how long to wait for in-flight runs to salvage and persist")
		maxQueued = flag.Int("max-queued", 0, "submissions allowed in flight at once; beyond it POST /runs gets 429 + Retry-After (0 = unbounded)")
		retention = flag.Duration("retention", 0, "POST /admin/gc removes cells unreferenced by any run and older than this (0 disables gc)")
		fleetOn   = flag.Bool("fleet", false, "mount /fleet/* so llama-worker processes can lease shard jobs")
		leaseTTL  = flag.Duration("lease-ttl", 10*time.Second, "fleet lease heartbeat deadline: a silent worker's jobs are reassigned after this (needs -fleet)")
		fleetOnly = flag.Bool("fleet-only", false, "start no local compute workers; the fleet does all compute (needs -fleet)")
	)
	flag.Parse()
	if *storeDir == "" {
		fatal(errors.New("-store DIR is required: the store is the service's durable result backend"))
	}
	if (*fleetOnly || flag.Lookup("lease-ttl").Value.String() != (10*time.Second).String()) && !*fleetOn {
		fatal(errors.New("-fleet-only and -lease-ttl need -fleet"))
	}
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unknown arguments %v", flag.Args()))
	}

	st, err := store.Open(*storeDir)
	if err != nil {
		fatal(err)
	}
	// Warm-start the per-design response tables from the store so the
	// first run after a restart skips previously computed physics.
	if nt, ne, warns := experiments.LoadResponseTables(st); nt > 0 || len(warns) > 0 {
		for _, warn := range warns {
			log.Printf("llama-serve: %s", warn)
		}
		log.Printf("llama-serve: warm-started %d response table(s), %d entries", nt, ne)
	}
	svc, err := service.New(service.Config{
		Store: st, Workers: *workers, Logf: log.Printf,
		MaxQueued: *maxQueued, Retention: *retention,
		Fleet: *fleetOn, FleetTTL: *leaseTTL, FleetOnly: *fleetOnly,
	})
	if err != nil {
		fatal(err)
	}

	// Listen before announcing readiness so "listening on" is never a lie
	// (and so tests/scripts can poll /healthz as the readiness signal).
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	httpSrv := &http.Server{Handler: svc}
	log.Printf("llama-serve: listening on %s (store %s)", ln.Addr(), *storeDir)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately instead of waiting out the drain
	log.Printf("llama-serve: draining (up to %v): cancelling in-flight runs, persisting completed cells", *drain)
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(dctx); err != nil {
		log.Printf("llama-serve: http shutdown: %v", err)
	}
	if err := svc.Shutdown(dctx); err != nil {
		fatal(fmt.Errorf("drain: %w", err))
	}
	// Persist the response tables grown during this lifetime so the next
	// process (or a fleet worker sharing the store) starts warm.
	if nt, ne, warns := experiments.SaveResponseTables(st); nt > 0 || len(warns) > 0 {
		for _, warn := range warns {
			log.Printf("llama-serve: %s", warn)
		}
		log.Printf("llama-serve: persisted %d response table(s), %d entries", nt, ne)
	}
	log.Printf("llama-serve: drained cleanly")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "llama-serve:", err)
	os.Exit(1)
}
