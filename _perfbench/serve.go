package main

// The serve-mixed workload is an in-process llama-serve (temp store,
// Workers = procs, tables imported as llama-serve does) on loopback,
// driven by an open loop: seeded Poisson arrivals at one fixed rate,
// each session timed from its due time, at most procs sessions in
// flight. Following the workload characterization of programmable
// metasurfaces (short reconfiguration bursts beside steady sweeps),
// sessions come in two classes:
//
//   - replay (three in four): a spec from a pool of 3–6 experiments ×
//     two seeds stored during preparation; every cell is reused and the result is rebuilt on
//     the scheduler's priority lane.
//   - fresh (one in four): 2–4 seeded-random experiments at a
//     never-used seed, sharded; these compute and persist.
//
// It is the only workload with HTTP, admission, lane priority and
// decode+render on the path, and it shows whether compute load leaks
// into replay latency.

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"sync"
	"time"

	"github.com/llama-surface/llama/internal/experiments"
	"github.com/llama-surface/llama/internal/metasurface"
	"github.com/llama-surface/llama/internal/service"
)

const (
	// serveRate is the open loop's arrival rate in sessions per second.
	serveRate = 40.0
	// freshEvery: one session in this many is fresh.
	freshEvery = 4
	// serveWarmup sessions open the loop and stay out of the medians.
	serveWarmup = 60
	// replayPool is the number of stored specs replay sessions draw from.
	replayPool = 64
	// Latency limits for SLO attainment, from due time to last byte.
	serveSLOFresh  = 250 * time.Millisecond
	serveSLOReplay = 100 * time.Millisecond
	// maxGenLag invalidates a run whose generator fell this far behind
	// at the 95th percentile: the offered rate was then not the one
	// stated.
	maxGenLag = time.Second
)

// planned is one scheduled session.
type planned struct {
	due   time.Duration // offset from the loop's start
	class string
	body  submitBody
	pool  int // index of a replay session's spec in the pool
	ref   []byte
	warm  bool
}

// arrivals returns the offsets of a Poisson process at rate per second
// until horizon, drawn from seed.
func arrivals(seed int64, rate float64, horizon time.Duration) []time.Duration {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x5e55))
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= horizon {
			return out
		}
		out = append(out, d)
	}
}

// deck deals experiment IDs in a seeded random order and reshuffles
// once too few remain for a hand, so every experiment recurs about
// equally often in every run: the cost mix of a run's sessions then
// does not hinge on how often the draw hit the expensive experiments.
type deck struct {
	rng   *rand.Rand
	ids   []string
	order []int
}

// deal returns k distinct IDs (k ≤ len(ids)).
func (d *deck) deal(k int) []string {
	if len(d.order) < k {
		d.order = d.rng.Perm(len(d.ids))
	}
	out := make([]string, k)
	for i := range out {
		out[i] = d.ids[d.order[i]]
	}
	d.order = d.order[k:]
	return out
}

// servePlan lays out the replay pool and the session schedule for one
// run: the warm-up sessions first, then every session due within the
// measured window. Every replay spec covers the two pool seeds, and
// exactly one session in each block of four is fresh, at a random
// place in the block.
func servePlan(seed int64, measure time.Duration) (pool []submitBody, plan []planned) {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x9e1))
	ids := experiments.IDs()
	poolDeck := &deck{rng: rng, ids: ids}
	for i := 0; i < replayPool; i++ {
		pool = append(pool, submitBody{IDs: poolDeck.deal(3 + rng.IntN(4)), Seeds: poolSeeds(seed), ShardRows: true, Resume: true})
	}
	freshDeck := &deck{rng: rng, ids: ids}
	// Generously long: the measured window starts at the warm-up's last
	// arrival, which is ~serveWarmup/serveRate seconds in.
	horizon := measure + 2*time.Duration(float64(serveWarmup)/serveRate*float64(time.Second)) + time.Second
	due := arrivals(seed, serveRate, horizon)
	var measureEnd time.Duration
	freshAt := 0
	for i, d := range due {
		if i == serveWarmup {
			measureEnd = d + measure
		}
		if i >= serveWarmup && d >= measureEnd {
			break
		}
		if i%freshEvery == 0 {
			freshAt = i + rng.IntN(freshEvery)
		}
		p := planned{due: d, warm: i < serveWarmup}
		if i == freshAt {
			p.class = fresh
			// Far above the pool seeds: never stored before the session.
			p.body = submitBody{IDs: freshDeck.deal(2 + rng.IntN(3)), Seeds: []int64{1_000_000_000 + seed*100_000 + int64(i)}, ShardRows: true, Resume: true}
		} else {
			p.class = replay
			p.pool = rng.IntN(len(pool))
			p.body = pool[p.pool]
		}
		plan = append(plan, p)
	}
	return pool, plan
}

// poolSeeds are the experiment seeds every replay spec covers.
func poolSeeds(seed int64) []int64 { return []int64{seed * 10, seed*10 + 1} }

// references renders the serial reference of every spec, procs at a
// time (each on the serial engine).
func references(ctx context.Context, procs int, specs []submitBody) ([][]byte, error) {
	out := make([][]byte, len(specs))
	errs := make([]error, len(specs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < procs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i], errs[i] = reference(ctx, specs[i].IDs, specs[i].Seeds)
			}
		}()
	}
	for i := range specs {
		next <- i
	}
	close(next)
	wg.Wait()
	return out, errors.Join(errs...)
}

// serveStats collects the per-layer samples of measured sessions.
type serveStats struct {
	mu                          sync.Mutex
	submit, wait, result, del   []float64
	resultKB, lag               []float64
	persisted, reused           []float64
	rejected                    int
	tracedLat, untracedLat      []float64
	tracedSessions, allSessions int
}

func runServe(b *bench) error {
	ctx := context.Background()
	b.slo[fresh], b.slo[replay] = serveSLOFresh, serveSLOReplay
	pool, plan := servePlan(b.seed, b.measure)

	// Preparation (not timed): store the replay pool and render the
	// serial reference of every spec the loop will submit.
	dir, err := b.scratch("serve")
	if err != nil {
		return err
	}
	if _, err := experiments.Execute(ctx, experiments.Options{
		Seeds: poolSeeds(b.seed), Concurrency: b.procs, ShardRows: true, StoreDir: dir,
	}); err != nil {
		return fmt.Errorf("storing the replay pool: %w", err)
	}
	specs := append([]submitBody(nil), pool...)
	for _, p := range plan {
		if p.class == fresh {
			specs = append(specs, p.body)
		}
	}
	refs, err := references(ctx, b.procs, specs)
	if err != nil {
		return err
	}
	next := len(pool) // fresh references follow the pool's, in plan order
	for i := range plan {
		if plan[i].class == replay {
			plan[i].ref = refs[plan[i].pool]
		} else {
			plan[i].ref = refs[next]
			next++
		}
	}

	srv, err := startTimed(b, dir, service.Config{Workers: b.procs}, nil)
	if err != nil {
		return err
	}
	client := newClient(b.procs)
	defer client.CloseIdleConnections()

	stats := &serveStats{}
	sem := make(chan struct{}, b.procs) // in-flight sessions
	var wg sync.WaitGroup
	var mem0 memSnap
	var cache0 metasurface.CacheStats
	start := time.Now().Add(10 * time.Millisecond)
	for i, p := range plan {
		due := start.Add(p.due)
		if !p.warm && plan[i-1].warm {
			mem0, cache0 = readMem(), metasurface.GlobalCacheStats()
		}
		time.Sleep(time.Until(due))
		sem <- struct{}{}
		lag := time.Since(due)
		traced := b.tr != nil && !p.warm && i%2 == 0
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			lat, err := serveSession(ctx, b, client, srv.base, p, due, lag, traced, stats)
			b.record(p.class, p.warm, lat, err)
		}()
	}
	wg.Wait()
	mem1, cache1 := readMem(), metasurface.GlobalCacheStats()
	if err := srv.stop(); err != nil {
		return err
	}

	lag95, _ := percentile(stats.lag, 95)
	if time.Duration(lag95*float64(time.Millisecond)) > maxGenLag {
		b.invalid = fmt.Sprintf("generator lag p95 %.1f ms exceeds %v: the loop could not hold %g sessions/s", lag95, maxGenLag, serveRate)
	}
	if b.tr == nil {
		return nil
	}
	n := stats.allSessions
	setP := func(name string, xs []float64, ps ...float64) {
		for _, p := range ps {
			v, _ := percentile(xs, p)
			b.set(fmt.Sprintf("%s_ms_p%g", name, p), v)
		}
	}
	setP("service.submit", stats.submit, 50, 95)
	setP("service.wait", stats.wait, 50, 95)
	setP("service.result", stats.result, 50, 95)
	setP("service.delete", stats.del, 50)
	b.set("service.rejected", float64(stats.rejected))
	b.set("service.result_kb", median(stats.resultKB))
	b.set("service.gen_lag_ms_p95", lag95)
	cache := cache1.Sub(cache0)
	b.set("metasurface.hits", float64(cache.Hits)/float64(max(n, 1)))
	b.set("metasurface.misses", float64(cache.Misses)/float64(max(n, 1)))
	b.set("metasurface.hit_ratio", cache.HitRate())
	b.set("metasurface.tables", float64(metasurface.TableCount()))
	b.set("store.cells_persisted", median(stats.persisted))
	b.set("store.cells_reused", median(stats.reused))
	b.set("store.disk_kb", dirKB(dir))
	b.setGo(mem0, mem1, n)
	tw, uw := median(stats.tracedLat), median(stats.untracedLat)
	b.set("trace.traced_wall_ms", tw)
	b.set("trace.untraced_wall_ms", uw)
	if uw > 0 {
		b.set("trace.overhead_ratio", tw/uw)
	}
	b.setSelfTimes(stats.tracedSessions)
	return nil
}

// serveSession runs one planned session and returns its latency from
// the due time to the last result byte.
func serveSession(ctx context.Context, b *bench, c *http.Client, base string, p planned, due time.Time, lag time.Duration, traced bool, st *serveStats) (time.Duration, error) {
	var tr *tracer
	var trace, root int64
	if traced {
		tr, trace = b.tr, b.newTrace()
		root = tr.add(trace, 0, "bench.session."+p.class, due, time.Time{})
		tr.add(trace, root, "bench.lag", due, due.Add(lag))
	}
	s, err := session(ctx, c, base, p.body, p.ref, tr, trace, root, nil)
	tr.end(root)
	lat := time.Since(due)
	if err == nil {
		lat = s.lastByte.Sub(due)
	}
	if p.warm {
		return lat, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.allSessions++
	st.lag = append(st.lag, ms(lag))
	if s.rejected {
		st.rejected++
	}
	if err != nil {
		return lat, err
	}
	st.submit = append(st.submit, ms(s.submit))
	st.wait = append(st.wait, ms(s.wait))
	st.result = append(st.result, ms(s.result))
	st.del = append(st.del, ms(s.del))
	st.resultKB = append(st.resultKB, float64(s.resultBytes)/1e3)
	if p.class == fresh {
		st.persisted = append(st.persisted, float64(s.status.ComputedCells))
		b.pinWant("serve.fresh_cells_reused", int64(s.status.ReusedCells), 0)
	} else {
		st.reused = append(st.reused, float64(s.status.ReusedCells))
		b.pinWant("serve.replay_cells_computed", int64(s.status.ComputedCells), 0)
	}
	if traced {
		st.tracedSessions++
		st.tracedLat = append(st.tracedLat, ms(lat))
	} else {
		st.untracedLat = append(st.untracedLat, ms(lat))
	}
	return lat, nil
}
