package fleet

// End-to-end coverage over real HTTP: llama-worker's loop (Worker +
// Client) against the coordinator's Handler, including the scaling
// property the fleet exists for (wall-clock shrinks as workers join)
// and mid-run worker death with observable reassignment.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/llama-surface/llama/internal/experiments"
	"github.com/llama-surface/llama/internal/store"
)

const sleepPointMs = 15

func init() {
	// A sweep whose points cost real wall-clock, so fleet scaling is
	// measurable: 12 points × 15ms ≈ 180ms of serial compute.
	experiments.RegisterSweep(&experiments.Sweep{
		ID:          "fleet-sleep",
		Description: "test-only sweep with slow points for fleet scaling runs",
		Title:       "fleet scaling fixture",
		Columns:     []string{"i", "seed"},
		Points:      12,
		Point: func(ctx context.Context, seed int64, i int) (experiments.PointResult, error) {
			select {
			case <-ctx.Done():
				return experiments.PointResult{}, ctx.Err()
			case <-time.After(sleepPointMs * time.Millisecond):
			}
			return experiments.Row(float64(i), float64(seed)), nil
		},
	})
}

// httpFleet wires a lease-only scheduler, coordinator and HTTP server.
func httpFleet(t *testing.T, ttl time.Duration) (*experiments.Scheduler, *Coordinator, *httptest.Server) {
	t.Helper()
	sched := experiments.NewScheduler(experiments.SchedulerConfig{LeaseOnly: true})
	t.Cleanup(sched.Close)
	c, err := NewCoordinator(Config{Sched: sched, TTL: ttl, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	ts := httptest.NewServer(Handler(c))
	t.Cleanup(ts.Close)
	return sched, c, ts
}

// startWorkers runs n fleet workers against base until the returned
// stop function is called (it joins them).
func startWorkers(t *testing.T, base string, n int, cfg func(*WorkerConfig)) (workers []*Worker, stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wc := WorkerConfig{
			Client: &Client{Base: base},
			Name:   fmt.Sprintf("w%d", i),
			Poll:   5 * time.Millisecond,
			Logf:   t.Logf,
		}
		if cfg != nil {
			cfg(&wc)
		}
		w, err := NewWorker(wc)
		if err != nil {
			t.Fatal(err)
		}
		workers = append(workers, w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(ctx); !errors.Is(err, context.Canceled) {
				t.Errorf("worker: %v", err)
			}
		}()
	}
	return workers, func() { cancel(); wg.Wait() }
}

// runCSV submits spec, waits, and renders CSV.
func runCSV(t *testing.T, sched *experiments.Scheduler, spec experiments.RunSpec) string {
	t.Helper()
	h, err := sched.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := h.Report()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteTables(&buf, "csv"); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// referenceCSV renders the serial single-process bytes for spec.
func referenceCSV(t *testing.T, spec experiments.RunSpec) string {
	t.Helper()
	rep, err := experiments.Execute(context.Background(), experiments.Options{
		IDs: spec.IDs, Seeds: spec.Seeds, Concurrency: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteTables(&buf, "csv"); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestFleetHTTPEndToEnd: real Workers over real HTTP drain a
// lease-only run — sharded point batches and unsharded whole-axis
// cells, NaN/Inf cells included — to bytes identical to the
// single-process reference. Workers with a store persist exactly the
// jobs that cover a whole axis: in a sharded run only the one-point
// sweep's batches, in an unsharded run every cell, each record decoding
// to the coordinator's table.
func TestFleetHTTPEndToEnd(t *testing.T) {
	const onePoint = "fig23"
	ids, seeds := []string{onePoint, "fleet-chaos", "tab1"}, []int64{1, 2}
	// Batches of 4 points cover neither fleet-chaos's nor tab1's axis
	// (25 and 7 points) whole; fig23's one batch is its whole axis.
	sharded := experiments.RunSpec{IDs: ids, Seeds: seeds, ShardRows: true, BatchRows: 4}
	want := referenceCSV(t, sharded)
	sched, c, ts := httpFleet(t, 2*time.Second)
	wst, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	workers, stop := startWorkers(t, ts.URL, 3, func(wc *WorkerConfig) { wc.Store = wst })
	defer stop()
	// checkRecords requires the record the workers wrote for every
	// (id, seed) of ids to decode to the single-process table.
	checkRecords := func(ids []string) {
		t.Helper()
		for _, id := range ids {
			for _, seed := range seeds {
				res, err := experiments.Run(context.Background(), id, seed)
				if err != nil {
					t.Fatal(err)
				}
				rec, err := wst.Get(res.ID, seed)
				if err != nil {
					t.Fatalf("%s seed %d: worker record: %v", res.ID, seed, err)
				}
				rows, err := rec.DecodeRows()
				if err != nil {
					t.Fatal(err)
				}
				if rec.Title != res.Title || !slices.Equal(rec.Columns, res.Columns) || !slices.Equal(rec.Notes, res.Notes) || !sameRows(rows, res.Rows) {
					t.Errorf("%s seed %d: worker record does not decode to the single-process table", res.ID, seed)
				}
			}
		}
	}

	if got := runCSV(t, sched, sharded); got != want {
		t.Error("fleet-over-HTTP bytes differ from single-process run")
	}
	for _, id := range ids {
		for _, seed := range seeds {
			_, err := os.Stat(wst.CellPath(id, seed))
			if persisted := err == nil; persisted != (id == onePoint) {
				t.Errorf("sharded run: %s seed %d persisted by a worker: %v, want %v", id, seed, persisted, id == onePoint)
			}
		}
	}
	checkRecords([]string{onePoint})
	var jobs int64
	for _, w := range workers {
		jobs += w.Jobs()
	}
	if jobs == 0 {
		t.Error("no worker reported completing any job")
	}
	if st := c.Stats(); st.Completed == 0 {
		t.Errorf("coordinator stats %+v: no completions", st)
	}

	unsharded := experiments.RunSpec{IDs: ids, Seeds: seeds}
	if got := runCSV(t, sched, unsharded); got != want {
		t.Error("unsharded fleet-over-HTTP bytes differ from single-process run")
	}
	entries, err := os.ReadDir(filepath.Dir(wst.CellPath(onePoint, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(entries); n != len(ids)*len(seeds) {
		t.Errorf("unsharded run: workers persisted %d cell records, want %d", n, len(ids)*len(seeds))
	}
	checkRecords(ids)
}

// TestFleetWorkerDeathMidRun: a worker killed while holding leases has
// its jobs reassigned within the heartbeat timeout and the run still
// finishes with reference bytes — the process-kill drill the CI smoke
// repeats with real OS processes.
func TestFleetWorkerDeathMidRun(t *testing.T) {
	spec := experiments.RunSpec{IDs: []string{"fleet-sleep"}, Seeds: []int64{1, 2}, ShardRows: true}
	want := referenceCSV(t, spec)
	const ttl = 200 * time.Millisecond
	sched, c, ts := httpFleet(t, ttl)

	// The doomed worker computes slowly and is killed mid-job.
	doomedCtx, killDoomed := context.WithCancel(context.Background())
	doomed, err := NewWorker(WorkerConfig{
		Client: &Client{Base: ts.URL},
		Name:   "doomed",
		Poll:   5 * time.Millisecond,
		Logf:   t.Logf,
		Compute: func(ctx context.Context, d experiments.JobDesc) (experiments.ExternalResult, error) {
			select {
			case <-ctx.Done(): // killed (or lease lost): never completes
				return experiments.ExternalResult{}, ctx.Err()
			case <-time.After(time.Hour):
				return experiments.ExternalResult{}, errors.New("unreachable")
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	doomedDone := make(chan struct{})
	go func() { defer close(doomedDone); _ = doomed.Run(doomedCtx) }()

	// Wait until the doomed worker actually holds a lease, then kill it.
	deadline := time.Now().Add(10 * time.Second)
	h, err := sched.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for c.Stats().Granted == 0 {
		if time.Now().After(deadline) {
			t.Fatal("doomed worker never got a lease")
		}
		time.Sleep(2 * time.Millisecond)
	}
	killed := time.Now()
	killDoomed()
	<-doomedDone

	// A healthy fleet picks up the pieces.
	_, stop := startWorkers(t, ts.URL, 2, nil)
	defer stop()
	for c.Stats().Expired == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("killed worker's lease never expired (stats %+v)", c.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if waited := time.Since(killed); waited > 4*ttl {
		t.Errorf("reassignment took %v, want within a few heartbeat timeouts (%v)", waited, ttl)
	}
	rep, err := h.Report()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteTables(&buf, "csv"); err != nil {
		t.Fatal(err)
	}
	if buf.String() != want {
		t.Error("bytes differ after mid-run worker death")
	}
}

// TestFleetScaling: the fleet's reason to exist — the same run's
// wall-clock shrinks as workers are added. fleet-sleep serializes to
// ~360ms of compute (24 points × 15ms); four workers should beat one
// comfortably even on a loaded CI box.
func TestFleetScaling(t *testing.T) {
	spec := experiments.RunSpec{IDs: []string{"fleet-sleep"}, Seeds: []int64{1, 2}, ShardRows: true}
	want := referenceCSV(t, spec)
	elapsed := make(map[int]time.Duration)
	for _, n := range []int{1, 4} {
		sched, _, ts := httpFleet(t, 5*time.Second)
		_, stop := startWorkers(t, ts.URL, n, nil)
		start := time.Now()
		if got := runCSV(t, sched, spec); got != want {
			t.Errorf("fleet of %d: bytes differ from single-process run", n)
		}
		elapsed[n] = time.Since(start)
		stop()
	}
	t.Logf("wall-clock: 1 worker %v, 4 workers %v", elapsed[1], elapsed[4])
	if elapsed[4] >= elapsed[1] {
		t.Errorf("adding workers did not shrink wall-clock: 1 worker %v, 4 workers %v", elapsed[1], elapsed[4])
	}
}

// TestWireEncodingRoundTrip: NaN and ±Inf survive the completion
// payload bit-exactly — the reason rows cross as strings, not JSON
// numbers.
func TestWireEncodingRoundTrip(t *testing.T) {
	res, err := experiments.ComputeJob(context.Background(), experiments.JobDesc{
		ID: "fleet-chaos", Seed: 3, Point: 0, Count: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	back, err := fromWire(toWire(res))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Points) != len(res.Points) {
		t.Fatalf("round trip lost points: %d != %d", len(back.Points), len(res.Points))
	}
	for i := range res.Points {
		a, b := res.Points[i].Rows, back.Points[i].Rows
		if len(a) != len(b) {
			t.Fatalf("point %d: row count %d != %d", i, len(b), len(a))
		}
		for r := range a {
			for c := range a[r] {
				av, bv := a[r][c], b[r][c]
				if av != bv && !(av != av && bv != bv) { // NaN-safe compare
					t.Errorf("point %d row %d col %d: %v != %v", i, r, c, bv, av)
				}
			}
		}
	}
}

// TestHandlerErrorMapping: unknown and expired leases map to 404/409
// sentinels through the client, and malformed JSON is a 400.
func TestHandlerErrorMapping(t *testing.T) {
	_, _, ts := httpFleet(t, time.Second)
	cl := &Client{Base: ts.URL}
	if err := cl.Heartbeat("lease-999"); !errors.Is(err, ErrUnknownLease) {
		t.Errorf("heartbeat unknown: %v, want ErrUnknownLease", err)
	}
	if err := cl.Complete("lease-999", experiments.ExternalResult{}); !errors.Is(err, ErrUnknownLease) {
		t.Errorf("complete unknown: %v, want ErrUnknownLease", err)
	}
	resp, err := ts.Client().Post(ts.URL+"/fleet/lease", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("malformed lease body: %d, want 400", resp.StatusCode)
	}
}
