package main

// The registry workload is what `llama-bench -all -shard-rows -store
// DIR [-resume]` pays. Each iteration runs two passes over every
// registered experiment at one seed derived from -seed:
//
//   - fresh: a cold pass into a new, empty store after the in-memory
//     response tables are reset. It is compute-dominated (circuit-eval
//     misses, table hits, channel/control work, scheduler fan-out) and
//     write-heavy in the store (cell persist plus the first table save).
//   - replay: the in-memory tables are reset, then the same spec runs
//     with Resume over a store filled once during preparation. Physics
//     and the worker pool are bypassed (0 jobs); the pass is store reads
//     plus the table load/merge/save path. A physics change must not
//     move it.
//
// A traced run alternates untraced iterations (Execute, the local pool)
// with traced ones that reproduce Execute's sequence by hand through the
// lease API, so every layer boundary is timed from outside.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"github.com/llama-surface/llama/internal/experiments"
	"github.com/llama-surface/llama/internal/metasurface"
	"github.com/llama-surface/llama/internal/store"
)

const (
	// registryWarmup iterations run before the measured phase; the first
	// passes of a process run up to twice as slow as later ones.
	registryWarmup = 2
	// setupRepeats is how often set-up is timed; the median is reported.
	setupRepeats = 11
	// registrySLO bounds a pass of either class.
	registrySLO = time.Second
)

// registryRun is the per-run state of the registry workload.
type registryRun struct {
	b         *bench
	seeds     []int64
	ref       []byte
	replayDir string
	cells     int64
	jobs      int64

	// Per-pass samples for the per-layer metrics.
	hits, misses []float64
	busy         map[string][]float64
	tables       []float64
	diskKB       []float64
	untracedWall []float64
	traced       map[string]*passLayers // class → traced-pass samples
	queueWaits   []float64
	computes     []float64
}

// passLayers collects the layer timings of traced passes of one class.
type passLayers struct {
	wall, open, load, save, finalize, computeSum, settleSum, busyRatio, entries []float64
}

func runRegistry(b *bench) error {
	ctx := context.Background()
	b.slo[fresh], b.slo[replay] = registrySLO, registrySLO
	r := &registryRun{
		b:      b,
		seeds:  []int64{b.seed},
		busy:   make(map[string][]float64),
		traced: map[string]*passLayers{fresh: {}, replay: {}},
	}
	r.cells = int64(len(experiments.IDs()) * len(r.seeds))
	var err error
	if r.ref, err = reference(ctx, nil, r.seeds); err != nil {
		return err
	}
	jobs, err := layoutJobs(ctx, nil, r.seeds)
	if err != nil {
		return err
	}
	r.jobs = int64(jobs)
	// Preparation (not timed): the store every replay pass resumes from.
	if r.replayDir, err = b.scratch("replay"); err != nil {
		return err
	}
	metasurface.ResetResponseTables()
	if _, err := experiments.Execute(ctx, experiments.Options{
		Seeds: r.seeds, Concurrency: b.procs, ShardRows: true, StoreDir: r.replayDir,
	}); err != nil {
		return fmt.Errorf("filling the replay store: %w", err)
	}
	// Set-up: what a process pays before its first Submit.
	for i := 0; i < setupRepeats; i++ {
		metasurface.ResetResponseTables()
		t0 := time.Now()
		st, err := store.Open(r.replayDir)
		if err != nil {
			return err
		}
		if _, _, warns := experiments.LoadResponseTables(st); len(warns) > 0 {
			return fmt.Errorf("loading response tables: %v", warns)
		}
		b.setup(time.Since(t0))
	}

	var start time.Time
	var mem0 memSnap
	iters, tracedOps := 0, 0
	for i := 0; ; i++ {
		warm := i < registryWarmup
		if !warm {
			if start.IsZero() {
				start, mem0 = time.Now(), readMem()
			} else if time.Since(start) >= b.measure {
				break
			}
			iters++
		}
		traced := b.tr != nil && !warm && i%2 == 0
		for _, class := range []string{fresh, replay} {
			var lat time.Duration
			var err error
			if traced {
				lat, err = r.tracedPass(ctx, class, b.newTrace())
				tracedOps++
			} else {
				lat, err = r.executePass(ctx, class, warm)
			}
			b.record(class, warm, lat, err)
		}
	}
	if b.tr != nil {
		r.setLayers(tracedOps)
		b.setGo(mem0, readMem(), iters)
	}
	return nil
}

// passDir returns the store a pass of the class runs against.
func (r *registryRun) passDir(class string) (string, error) {
	if class == replay {
		return r.replayDir, nil
	}
	return r.b.scratch("cold")
}

// check compares a pass's rendered bytes and store accounting with
// what the layout dictates, and pins the exact counts.
func (r *registryRun) check(class string, warm bool, out []byte, rep *experiments.Report) error {
	if !bytes.Equal(out, r.ref) {
		return errMismatch
	}
	if len(rep.StoreWarnings) > 0 {
		return fmt.Errorf("store warnings: %v", rep.StoreWarnings)
	}
	if warm {
		return nil
	}
	if class == fresh {
		r.b.pin("metasurface.misses", int64(rep.CacheMisses))
		r.b.pinWant("store.cells_persisted", int64(rep.PersistedCells), r.cells)
	} else {
		r.b.pinWant("metasurface.misses_replay", int64(rep.CacheMisses), 0)
		r.b.pinWant("store.cells_reused", int64(rep.ReusedCells), r.cells)
	}
	return nil
}

// executePass runs one pass the way llama-bench does: Execute, then
// render the CSV. The latency runs from the call to the last byte.
func (r *registryRun) executePass(ctx context.Context, class string, warm bool) (time.Duration, error) {
	dir, err := r.passDir(class)
	if err != nil {
		return 0, err
	}
	if class == fresh {
		defer os.RemoveAll(dir)
	}
	metasurface.ResetResponseTables()
	t0 := time.Now()
	rep, err := experiments.Execute(ctx, experiments.Options{
		Seeds: r.seeds, Concurrency: r.b.procs, ShardRows: true, StoreDir: dir, Resume: class == replay,
	})
	if err != nil {
		return 0, err
	}
	var buf bytes.Buffer
	if err := rep.WriteTables(&buf, "csv"); err != nil {
		return 0, err
	}
	lat := time.Since(t0)
	if err := r.check(class, warm, buf.Bytes(), rep); err != nil {
		return lat, err
	}
	if r.b.tr != nil && !warm && class == fresh {
		r.untracedWall = append(r.untracedWall, ms(lat))
		r.hits = append(r.hits, float64(rep.CacheHits))
		r.misses = append(r.misses, float64(rep.CacheMisses))
		r.tables = append(r.tables, float64(metasurface.TableCount()))
		r.diskKB = append(r.diskKB, dirKB(dir))
		for _, t := range rep.Timings {
			r.busy[t.ID] = append(r.busy[t.ID], ms(t.Busy))
		}
	}
	return lat, nil
}

// tracedPass reproduces Execute's sequence by hand — store.Open →
// LoadResponseTables → lease-only scheduler + Submit → procs goroutines
// running TryLease → ComputeJob → Complete → Report → SaveResponseTables
// → render — with a span around every call.
func (r *registryRun) tracedPass(ctx context.Context, class string, trace int64) (time.Duration, error) {
	tr := r.b.tr
	dir, err := r.passDir(class)
	if err != nil {
		return 0, err
	}
	if class == fresh {
		defer os.RemoveAll(dir)
	}
	metasurface.ResetResponseTables()
	root := tr.begin(trace, 0, "bench.pass."+class)
	sp := tr.begin(trace, root, "store.open")
	st, err := store.Open(dir)
	openD := tr.end(sp)
	if err != nil {
		tr.end(root)
		return 0, err
	}
	sp = tr.begin(trace, root, "store.tables_load")
	_, _, loadWarns := experiments.LoadResponseTables(st)
	loadD := tr.end(sp)
	sched := experiments.NewScheduler(experiments.SchedulerConfig{LeaseOnly: true, Store: st})
	defer sched.Close()
	sp = tr.begin(trace, root, "experiments.submit")
	h, err := sched.Submit(ctx, experiments.RunSpec{Seeds: r.seeds, ShardRows: true, Resume: class == replay})
	tr.end(sp)
	if err != nil {
		tr.end(root)
		return 0, err
	}
	submitted := time.Now()

	var mu sync.Mutex
	var waits, computes []float64
	var computeSum, settleSum time.Duration
	var lastSettle time.Time
	var wg sync.WaitGroup
	for w := 0; w < r.b.procs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				t0 := time.Now()
				j := sched.TryLease()
				t1 := time.Now()
				if j == nil {
					return // every job is dealt; nothing is ever requeued here
				}
				tr.add(trace, root, "experiments.lease", t0, t1)
				res, err := experiments.ComputeJob(ctx, j.Desc())
				t2 := time.Now()
				tr.add(trace, root, "experiments.compute", t1, t2)
				if err != nil {
					j.Fail(err)
				} else if err := j.Complete(res); err != nil {
					j.Fail(err)
				}
				t3 := time.Now()
				tr.add(trace, root, "experiments.complete", t2, t3)
				mu.Lock()
				waits = append(waits, ms(t1.Sub(submitted)))
				computes = append(computes, ms(t2.Sub(t1)))
				computeSum += t2.Sub(t1)
				settleSum += t3.Sub(t2)
				if t3.After(lastSettle) {
					lastSettle = t3
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sp = tr.begin(trace, root, "experiments.report")
	rep, err := h.Report()
	tr.end(sp)
	reported := time.Now()
	if err != nil {
		tr.end(root)
		return 0, err
	}
	sp = tr.begin(trace, root, "store.tables_save")
	_, entries, warns := experiments.SaveResponseTables(st)
	saveD := tr.end(sp)
	rep.StoreWarnings = append(append(rep.StoreWarnings, loadWarns...), warns...)
	sp = tr.begin(trace, root, "experiments.render")
	var buf bytes.Buffer
	err = rep.WriteTables(&buf, "csv")
	tr.end(sp)
	lat := tr.end(root)
	if err != nil {
		return lat, err
	}
	if err := r.check(class, false, buf.Bytes(), rep); err != nil {
		return lat, err
	}
	if class == fresh {
		r.b.pinWant("experiments.jobs", int64(len(waits)), r.jobs)
	}

	p := r.traced[class]
	p.wall = append(p.wall, ms(lat))
	p.open = append(p.open, ms(openD))
	p.load = append(p.load, ms(loadD))
	p.save = append(p.save, ms(saveD))
	p.entries = append(p.entries, float64(entries))
	p.computeSum = append(p.computeSum, ms(computeSum))
	p.settleSum = append(p.settleSum, ms(settleSum))
	p.busyRatio = append(p.busyRatio, float64(computeSum)/(float64(r.b.procs)*float64(lat)))
	if !lastSettle.IsZero() {
		p.finalize = append(p.finalize, ms(reported.Sub(lastSettle)))
	}
	if class == fresh {
		r.queueWaits = append(r.queueWaits, waits...)
		r.computes = append(r.computes, computes...)
	}
	return lat, nil
}

// setLayers turns the collected samples into per-layer metrics.
func (r *registryRun) setLayers(tracedOps int) {
	b := r.b
	f, rp := r.traced[fresh], r.traced[replay]
	qw50, _ := percentile(r.queueWaits, 50)
	qw95, _ := percentile(r.queueWaits, 95)
	c95, _ := percentile(r.computes, 95)
	b.set("experiments.queue_wait_ms_p50", qw50)
	b.set("experiments.queue_wait_ms_p95", qw95)
	b.set("experiments.compute_ms_sum", median(f.computeSum))
	b.set("experiments.compute_ms_p95", c95)
	b.set("experiments.settle_ms_sum", median(f.settleSum))
	b.set("experiments.jobs", float64(r.jobs))
	b.set("experiments.busy_ratio", median(f.busyRatio))
	b.set("experiments.finalize_ms", median(f.finalize))
	for id, v := range r.busy {
		b.set("experiments.busy_ms."+id, median(v))
	}
	hits, misses := median(r.hits), median(r.misses)
	b.set("metasurface.hits", hits)
	b.set("metasurface.misses", misses)
	if hits+misses > 0 {
		b.set("metasurface.hit_ratio", hits/(hits+misses))
	}
	b.set("metasurface.tables", median(r.tables))
	b.set("store.open_ms", median(rp.open))
	b.set("store.tables_load_ms", median(rp.load))
	b.set("store.tables_save_ms", median(rp.save))
	b.set("store.tables_save_ms_fresh", median(f.save))
	b.set("store.table_entries", median(f.entries))
	b.set("store.cells_persisted", float64(r.cells))
	b.set("store.cells_reused", float64(r.cells))
	b.set("store.disk_kb", median(r.diskKB))
	tw, uw := median(f.wall), median(r.untracedWall)
	b.set("trace.traced_wall_ms", tw)
	b.set("trace.untraced_wall_ms", uw)
	if uw > 0 {
		b.set("trace.overhead_ratio", tw/uw)
	}
	b.setSelfTimes(tracedOps)
}
