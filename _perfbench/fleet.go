package main

// The fleet-sharded workload is llama-serve with Fleet and FleetOnly on
// loopback (no local compute workers) plus procs in-process
// fleet.Workers. Each iteration submits the full registry sharded with
// resume:false (fresh: every job crosses a lease and a completion round
// trip) and then the same spec with resume:true (replay: the completed
// run rebuilt from the store without the fleet). It is the only
// workload where per-job lease/complete round trips and wire encoding
// are on the critical path.
//
// Workers poll an empty coordinator every fleetPoll instead of the
// default 200ms, so the idle backoff never sits between a submission
// and its first lease.

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/llama-surface/llama/internal/experiments"
	"github.com/llama-surface/llama/internal/fleet"
	"github.com/llama-surface/llama/internal/metasurface"
	"github.com/llama-surface/llama/internal/service"
)

const (
	// fleetPoll is the workers' idle backoff between empty lease polls.
	fleetPoll = 5 * time.Millisecond
	// fleetTTL is the lease heartbeat deadline. The coordinator keeps
	// terminal lease records for 2×TTL and scans them on every call, so
	// round trips slow down until the first records purge; the measured
	// phase starts once that table is at its steady size.
	fleetTTL = 2 * time.Second
	// fleetWarmup is the minimum number of warm-up iterations.
	fleetWarmup = 3
	// fleetSLO bounds a pass of either class.
	fleetSLO = 2 * time.Second
)

// iteration is one fleet iteration's passes. A replay pass costs ~1/40
// of a fresh one, so it runs four times to give its percentiles as
// many samples as the fresh pass's time affords.
var iteration = []string{fresh, replay, replay, replay, replay}

// fleetPass is what the instruments saw during one pass.
type fleetPass struct {
	leaseRTT, completeRTT, compute []float64
	grants                         []time.Time
	leaseCalls, empty, heartbeats  int
	completeBytes                  int64
	computeSum, settleSum          time.Duration
	lastComplete                   time.Time
	busy                           map[string]time.Duration
}

// timingTransport times the fleet workers' calls to the coordinator,
// and the compute hook beside it times each job. Both record only
// while a pass is open, so idle polls between passes stay out.
type timingTransport struct {
	next http.RoundTripper
	tr   *tracer

	open          atomic.Bool
	mu            sync.Mutex
	trace, parent int64
	p             fleetPass
}

// RoundTrip implements http.RoundTripper.
func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.next.RoundTrip(req)
	if err != nil || !t.open.Load() {
		return resp, err
	}
	t.observe(req.URL.Path, req.ContentLength, resp.StatusCode, start, time.Now())
	return resp, nil
}

// observe classifies one fleet call: a 204 lease reply is an empty
// lease, a 200 a grant.
func (t *timingTransport) observe(path string, size int64, code int, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch path {
	case "/fleet/lease":
		t.p.leaseCalls++
		if code == http.StatusNoContent {
			t.p.empty++
			return
		}
		t.p.leaseRTT = append(t.p.leaseRTT, ms(end.Sub(start)))
		t.p.grants = append(t.p.grants, end)
		t.tr.add(t.trace, t.parent, "fleet.lease", start, end)
	case "/fleet/complete":
		t.p.completeRTT = append(t.p.completeRTT, ms(end.Sub(start)))
		t.p.completeBytes += size
		t.p.settleSum += end.Sub(start)
		if end.After(t.p.lastComplete) {
			t.p.lastComplete = end
		}
		t.tr.add(t.trace, t.parent, "fleet.complete", start, end)
	case "/fleet/heartbeat":
		t.p.heartbeats++
		t.tr.add(t.trace, t.parent, "fleet.heartbeat", start, end)
	}
}

// compute is the workers' Compute hook: experiments.ComputeJob, timed.
func (t *timingTransport) compute(ctx context.Context, d experiments.JobDesc) (experiments.ExternalResult, error) {
	start := time.Now()
	res, err := experiments.ComputeJob(ctx, d)
	end := time.Now()
	if t.open.Load() {
		t.mu.Lock()
		t.p.compute = append(t.p.compute, ms(end.Sub(start)))
		t.p.computeSum += end.Sub(start)
		t.p.busy[d.ID] += end.Sub(start)
		t.tr.add(t.trace, t.parent, "fleet.compute", start, end)
		t.mu.Unlock()
	}
	return res, err
}

// begin opens a pass; spans go to trace (none when tr is nil).
func (t *timingTransport) begin(tr *tracer, trace int64) {
	t.mu.Lock()
	t.tr, t.trace, t.parent = tr, trace, 0
	t.p = fleetPass{busy: make(map[string]time.Duration)}
	t.mu.Unlock()
	t.open.Store(true)
}

// setParent makes later fleet spans children of span.
func (t *timingTransport) setParent(span int64) {
	t.mu.Lock()
	t.parent = span
	t.mu.Unlock()
}

// finish closes the pass and returns what it saw.
func (t *timingTransport) finish() fleetPass {
	t.open.Store(false)
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.p
}

// fleetSamples collects measured fresh passes for the per-layer metrics.
type fleetSamples struct {
	leaseRTT, completeRTT, compute, queueWait  []float64
	computeSum, settleSum, finalize, busyRatio []float64
	heartbeats, completeKBPerJob, misses, hits []float64
	granted                                    []float64
	submit, wait, result, del, resultKB        []float64 // every measured session
	leaseCalls, empty                          int
	busy                                       map[string][]float64
	tracedWall, untracedWall                   []float64
	tracedOps                                  int
}

func runFleet(b *bench) error {
	ctx := context.Background()
	b.slo[fresh], b.slo[replay] = fleetSLO, fleetSLO
	seeds := []int64{b.seed}
	ref, err := reference(ctx, nil, seeds)
	if err != nil {
		return err
	}
	jobs, err := layoutJobs(ctx, nil, seeds)
	if err != nil {
		return err
	}
	cells := len(experiments.IDs()) * len(seeds)
	// Preparation (not timed): the store already holds this registry
	// run and its response tables, as a restarted llama-serve's would.
	dir, err := b.scratch("fleet")
	if err != nil {
		return err
	}
	if _, err := experiments.Execute(ctx, experiments.Options{
		Seeds: seeds, Concurrency: b.procs, ShardRows: true, StoreDir: dir,
	}); err != nil {
		return fmt.Errorf("filling the store: %w", err)
	}

	// Untraced runs use the workers' defaults; traced runs time every
	// fleet call and job through the transport and the Compute hook.
	var tt *timingTransport
	client := newClient(b.procs)
	defer client.CloseIdleConnections()
	workerHTTP := client
	var hook func(context.Context, experiments.JobDesc) (experiments.ExternalResult, error)
	if b.tr != nil {
		tt = &timingTransport{next: client.Transport}
		workerHTTP = &http.Client{Transport: tt}
		hook = tt.compute
	}
	startWorkers := func(ctx context.Context, base string, wg *sync.WaitGroup) {
		for i := 0; i < b.procs; i++ {
			w, err := fleet.NewWorker(fleet.WorkerConfig{
				Client:  &fleet.Client{Base: base, HTTP: workerHTTP},
				Name:    fmt.Sprintf("worker-%d", i),
				Poll:    fleetPoll,
				Compute: hook,
			})
			if err != nil {
				panic(err) // the config above is always valid
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				_ = w.Run(ctx) // returns ctx.Err() once the server stops its workers
			}()
		}
	}
	srv, err := startTimed(b, dir, service.Config{Workers: b.procs, Fleet: true, FleetOnly: true, FleetTTL: fleetTTL}, startWorkers)
	if err != nil {
		return err
	}

	smp := &fleetSamples{busy: make(map[string][]float64)}
	pass := func(class string, warm, traced bool) (time.Duration, error) {
		body := submitBody{Seeds: seeds, ShardRows: true, Resume: class == replay}
		var tr *tracer
		var trace, root int64
		if traced {
			tr, trace = b.tr, b.newTrace()
			root = tr.begin(trace, 0, "bench.pass."+class)
		}
		st0, cache0 := srv.svc.Fleet().Stats(), metasurface.GlobalCacheStats()
		t0 := time.Now()
		var waiting func(int64)
		if tt != nil {
			tt.begin(tr, trace)
			waiting = tt.setParent
		}
		s, err := session(ctx, client, srv.base, body, ref, tr, trace, root, waiting)
		lat := time.Since(t0)
		if err == nil {
			lat = s.lastByte.Sub(t0)
		}
		tr.end(root)
		var p fleetPass
		if tt != nil {
			p = tt.finish()
		}
		st1, cache1 := srv.svc.Fleet().Stats(), metasurface.GlobalCacheStats()
		if err != nil {
			return lat, err
		}
		granted, dups, expired := st1.Granted-st0.Granted, st1.Duplicates-st0.Duplicates, st1.Expired-st0.Expired
		if dups != 0 || expired != 0 {
			return lat, fmt.Errorf("%d duplicate and %d expired lease(s)", dups, expired)
		}
		if warm {
			return lat, nil
		}
		if tt != nil {
			smp.submit = append(smp.submit, ms(s.submit))
			smp.wait = append(smp.wait, ms(s.wait))
			smp.result = append(smp.result, ms(s.result))
			smp.del = append(smp.del, ms(s.del))
			smp.resultKB = append(smp.resultKB, float64(s.resultBytes)/1e3)
		}
		if class == replay {
			b.pinWant("fleet.granted_replay", granted, 0)
			b.pinWant("store.cells_reused", int64(s.status.ReusedCells), int64(cells))
			return lat, nil
		}
		b.pinWant("fleet.granted", granted, int64(jobs))
		b.pinWant("fleet.duplicates", dups, 0)
		b.pinWant("fleet.expired", expired, 0)
		b.pinWant("store.cells_persisted", int64(s.status.ComputedCells), int64(cells))
		cache := cache1.Sub(cache0)
		b.pin("metasurface.misses", int64(cache.Misses))
		if tt == nil {
			return lat, nil
		}
		b.pinWant("experiments.jobs", int64(len(p.compute)), int64(jobs))
		smp.leaseRTT = append(smp.leaseRTT, p.leaseRTT...)
		smp.completeRTT = append(smp.completeRTT, p.completeRTT...)
		smp.compute = append(smp.compute, p.compute...)
		for _, g := range p.grants {
			smp.queueWait = append(smp.queueWait, ms(g.Sub(s.submitted)))
		}
		smp.computeSum = append(smp.computeSum, ms(p.computeSum))
		smp.settleSum = append(smp.settleSum, ms(p.settleSum))
		if !p.lastComplete.IsZero() {
			smp.finalize = append(smp.finalize, ms(s.waited.Sub(p.lastComplete)))
		}
		smp.busyRatio = append(smp.busyRatio, float64(p.computeSum)/(float64(b.procs)*float64(lat)))
		smp.heartbeats = append(smp.heartbeats, float64(p.heartbeats))
		if n := len(p.completeRTT); n > 0 {
			smp.completeKBPerJob = append(smp.completeKBPerJob, float64(p.completeBytes)/1e3/float64(n))
		}
		smp.hits = append(smp.hits, float64(cache.Hits))
		smp.misses = append(smp.misses, float64(cache.Misses))
		smp.leaseCalls += p.leaseCalls
		smp.empty += p.empty
		for id, d := range p.busy {
			smp.busy[id] = append(smp.busy[id], ms(d))
		}
		smp.granted = append(smp.granted, float64(granted))
		if traced {
			smp.tracedWall = append(smp.tracedWall, ms(lat))
		} else {
			smp.untracedWall = append(smp.untracedWall, ms(lat))
		}
		return lat, nil
	}

	var start time.Time
	var mem0 memSnap
	iters := 0
	warmUntil := time.Now().Add(2*fleetTTL + time.Second)
	for i := 0; ; i++ {
		warm := start.IsZero() && (i < fleetWarmup || time.Now().Before(warmUntil))
		if !warm {
			if start.IsZero() {
				start, mem0 = time.Now(), readMem()
			} else if time.Since(start) >= b.measure {
				break
			}
			iters++
		}
		traced := b.tr != nil && !warm && iters%2 == 0
		for _, class := range iteration {
			lat, err := pass(class, warm, traced)
			b.record(class, warm, lat, err)
			if traced {
				smp.tracedOps++
			}
		}
	}
	mem1 := readMem()
	totals := srv.svc.Fleet().Stats()
	if err := srv.stop(); err != nil {
		return err
	}
	if b.tr == nil {
		return nil
	}
	set := func(name string, xs []float64, p float64) {
		v, _ := percentile(xs, p)
		b.set(name, v)
	}
	set("experiments.queue_wait_ms_p50", smp.queueWait, 50)
	set("experiments.queue_wait_ms_p95", smp.queueWait, 95)
	b.set("experiments.compute_ms_sum", median(smp.computeSum))
	set("experiments.compute_ms_p95", smp.compute, 95)
	b.set("experiments.settle_ms_sum", median(smp.settleSum))
	b.set("experiments.jobs", float64(jobs))
	b.set("experiments.busy_ratio", median(smp.busyRatio))
	b.set("experiments.finalize_ms", median(smp.finalize))
	for id, v := range smp.busy {
		b.set("experiments.busy_ms."+id, median(v))
	}
	hits, misses := median(smp.hits), median(smp.misses)
	b.set("metasurface.hits", hits)
	b.set("metasurface.misses", misses)
	if hits+misses > 0 {
		b.set("metasurface.hit_ratio", hits/(hits+misses))
	}
	b.set("metasurface.tables", float64(metasurface.TableCount()))
	b.set("store.cells_persisted", float64(cells))
	b.set("store.cells_reused", float64(cells))
	b.set("store.disk_kb", dirKB(dir))
	set("service.submit_ms_p50", smp.submit, 50)
	set("service.submit_ms_p95", smp.submit, 95)
	set("service.wait_ms_p50", smp.wait, 50)
	set("service.wait_ms_p95", smp.wait, 95)
	set("service.result_ms_p50", smp.result, 50)
	set("service.result_ms_p95", smp.result, 95)
	set("service.delete_ms_p50", smp.del, 50)
	b.set("service.result_kb", median(smp.resultKB))
	set("fleet.lease_rtt_ms_p50", smp.leaseRTT, 50)
	set("fleet.lease_rtt_ms_p95", smp.leaseRTT, 95)
	set("fleet.complete_rtt_ms_p50", smp.completeRTT, 50)
	set("fleet.complete_rtt_ms_p95", smp.completeRTT, 95)
	if smp.leaseCalls > 0 {
		b.set("fleet.empty_lease_ratio", float64(smp.empty)/float64(smp.leaseCalls))
	}
	b.set("fleet.heartbeats", median(smp.heartbeats))
	b.set("fleet.complete_kb_per_job", median(smp.completeKBPerJob))
	b.set("fleet.compute_ms_sum", median(smp.computeSum))
	b.set("fleet.granted", median(smp.granted))
	b.set("fleet.duplicates", float64(totals.Duplicates))
	b.set("fleet.expired", float64(totals.Expired))
	b.setGo(mem0, mem1, iters)
	tw, uw := median(smp.tracedWall), median(smp.untracedWall)
	b.set("trace.traced_wall_ms", tw)
	b.set("trace.untraced_wall_ms", uw)
	if uw > 0 {
		b.set("trace.overhead_ratio", tw/uw)
	}
	b.setSelfTimes(smp.tracedOps)
	return nil
}
