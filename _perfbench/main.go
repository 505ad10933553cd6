// Command perfbench is the repository benchmark. It drives the
// experiment registry, the HTTP service and the worker fleet in one
// process, checks every output byte for byte against a serial
// reference, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics of a traced run) as the last line of standard
// output:
//
//	perfbench -workload registry -seed 1 -seconds 30 -trace 0
//
// The workloads, their metrics and the layer-to-metric map are
// described in README.md beside this file.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*bench) error{
	"registry":      runRegistry,
	"serve-mixed":   runServe,
	"fleet-sharded": runFleet,
}

// Operation classes: fresh operations compute physics, replay
// operations are answered from the results store.
const (
	fresh  = "fresh"
	replay = "replay"
)

// bench is one benchmark run: its inputs, its scratch space and
// everything it measured. Record methods are safe for concurrent use.
type bench struct {
	workload string
	seed     int64
	measure  time.Duration
	procs    int
	dir      string  // scratch directory, removed at exit
	tr       *tracer // non-nil in a traced run
	traces   atomic.Int64

	mu        sync.Mutex
	setups    []time.Duration
	lat       map[string][]float64 // class → ms of measured, successful operations
	slo       map[string]time.Duration
	attempted int // every operation, warm-up included
	failed    int
	measured  int // operations that entered the medians
	inSLO     int
	errs      []string
	layer     map[string]float64
	pins      map[string][]int64
	wantPins  map[string]int64
	invalid   string
}

// record accounts one operation. Warm-up operations count towards
// attempted and failed (their outputs are checked too) but not towards
// latency or SLO attainment. A failed measured operation misses the
// SLO.
func (b *bench) record(class string, warm bool, lat time.Duration, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if err != nil {
		b.failed++
		if len(b.errs) < 5 {
			b.errs = append(b.errs, fmt.Sprintf("%s: %v", class, err))
		}
	}
	if warm {
		return
	}
	b.measured++
	if err != nil {
		return
	}
	b.lat[class] = append(b.lat[class], ms(lat))
	if lat <= b.slo[class] {
		b.inSLO++
	}
}

// setup records one set-up duration.
func (b *bench) setup(d time.Duration) {
	b.mu.Lock()
	b.setups = append(b.setups, d)
	b.mu.Unlock()
}

// pin records one observation of an exact count that must repeat on
// unchanged code.
func (b *bench) pin(name string, v int64) {
	b.mu.Lock()
	b.pins[name] = append(b.pins[name], v)
	b.mu.Unlock()
}

// pinWant records an observation together with the value the layout
// dictates (cells = experiments × seeds, granted = jobs, ...).
func (b *bench) pinWant(name string, v, want int64) {
	b.mu.Lock()
	b.pins[name] = append(b.pins[name], v)
	b.wantPins[name] = want
	b.mu.Unlock()
}

// set stores one per-layer metric.
func (b *bench) set(name string, v float64) {
	b.mu.Lock()
	b.layer[name] = v
	b.mu.Unlock()
}

// newTrace returns a fresh trace ID for one pass or session.
func (b *bench) newTrace() int64 { return b.traces.Add(1) }

// scratch returns a fresh directory under the run's scratch space.
func (b *bench) scratch(name string) (string, error) {
	return os.MkdirTemp(b.dir, name+"-")
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed every input derives from")
	seconds := flag.Int("seconds", 30, "length of the measured phase")
	traceOn := flag.Int("trace", 0, "0 prints end-to-end metrics; 1 runs traced and prints per-layer metrics")
	flag.Parse()
	drive, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceOn != 0 && *traceOn != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: usage: -workload {%s} -seed N -seconds N -trace {0|1}\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	base := filepath.Join(".bench_build", "perfbench-run")
	if err := os.MkdirAll(base, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	b := &bench{
		workload: *workload,
		seed:     *seed,
		measure:  time.Duration(*seconds) * time.Second,
		procs:    runtime.GOMAXPROCS(0),
		dir:      dir,
		lat:      make(map[string][]float64),
		slo:      make(map[string]time.Duration),
		layer:    make(map[string]float64),
		pins:     make(map[string][]int64),
		wantPins: make(map[string]int64),
	}
	if *traceOn == 1 {
		b.tr = &tracer{}
	}
	if err := drive(b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", b.workload, err)
		return 1
	}
	if b.tr != nil {
		path := filepath.Join(base, fmt.Sprintf("trace-%s-seed%d.jsonl", b.workload, b.seed))
		if err := writeSpans(path, b.tr.snapshot()); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Printf("spans written to %s\n", path)
	}
	out, err := b.report()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// heapLiveMB is HeapAlloc after a forced collection, in MB.
func heapLiveMB() float64 {
	// Two cycles: objects with finalizers, and what they reference,
	// survive the first.
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// memSnap is the allocation counters at one instant.
type memSnap struct {
	alloc uint64
	gcs   uint32
}

func readMem() memSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnap{alloc: m.TotalAlloc, gcs: m.NumGC}
}

// setGo stores the runtime's per-operation allocation and GC counts
// over the measured phase.
func (b *bench) setGo(before, after memSnap, ops int) {
	if ops < 1 {
		ops = 1
	}
	b.set("go.alloc_mb", float64(after.alloc-before.alloc)/1e6/float64(ops))
	b.set("go.gc_cycles", float64(after.gcs-before.gcs)/float64(ops))
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics an untraced run reports, in BENCHMARK.json
// order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"fresh_latency_p50_ms", "ms"},
	{"fresh_latency_p95_ms", "ms"},
	{"replay_latency_p50_ms", "ms"},
	{"replay_latency_p95_ms", "ms"},
	{"slo_attainment", "ratio"},
	{"heap_live_mb", "MB"},
}

// report prints the human summary and returns the result line.
func (b *bench) report() ([]byte, error) {
	heap := heapLiveMB()
	setupVals := make([]float64, len(b.setups))
	for i, d := range b.setups {
		setupVals[i] = d.Seconds()
	}
	if len(setupVals) == 0 {
		return nil, errors.New("no set-up was timed")
	}
	fp50, nf := percentile(b.lat[fresh], 50)
	fp95, _ := percentile(b.lat[fresh], 95)
	rp50, nr := percentile(b.lat[replay], 50)
	rp95, _ := percentile(b.lat[replay], 95)
	slo := 0.0
	if b.measured > 0 {
		slo = float64(b.inSLO) / float64(b.measured)
	}
	e2e := map[string]float64{
		"setup_s":               median(setupVals),
		"fresh_latency_p50_ms":  fp50,
		"fresh_latency_p95_ms":  fp95,
		"replay_latency_p50_ms": rp50,
		"replay_latency_p95_ms": rp95,
		"slo_attainment":        slo,
		"heap_live_mb":          heap,
	}
	if (nf == 0 || nr == 0) && b.invalid == "" {
		b.invalid = fmt.Sprintf("too few operations: %d fresh and %d replay succeeded in the measured phase", nf, nr)
	}
	errRate := 0.0
	if b.attempted > 0 {
		errRate = float64(b.failed) / float64(b.attempted)
	}

	mode := "untraced"
	if b.tr != nil {
		mode = "traced"
	}
	fmt.Printf("== perfbench %s seed=%d measure=%v procs=%d (%s)\n", b.workload, b.seed, b.measure, b.procs, mode)
	wall := "n/a (open loop: sessions have no passes)"
	if b.workload != "serve-mixed" {
		wall = fmt.Sprintf("%.6g s (median fresh pass) / %.6g s (median replay pass)", fp50/1000, rp50/1000)
	}
	fmt.Printf("  %-24s %.6g s (median of %d set-ups)\n", "setup_s", e2e["setup_s"], len(setupVals))
	fmt.Printf("  %-24s %s\n", "wall_s", wall)
	fmt.Printf("  %-24s %.6g ms (n=%d)\n", "fresh_latency_p50_ms", fp50, nf)
	fmt.Printf("  %-24s %.6g ms (n=%d, %d beyond)\n", "fresh_latency_p95_ms", fp95, nf, beyond(nf, 95))
	fmt.Printf("  %-24s %.6g ms (n=%d)\n", "replay_latency_p50_ms", rp50, nr)
	fmt.Printf("  %-24s %.6g ms (n=%d, %d beyond)\n", "replay_latency_p95_ms", rp95, nr, beyond(nr, 95))
	fmt.Printf("  %-24s %.6g ratio (%d/%d measured operations within fresh %v / replay %v)\n",
		"slo_attainment", slo, b.inSLO, b.measured, b.slo[fresh], b.slo[replay])
	fmt.Printf("  %-24s %.6g MB\n", "heap_live_mb", heap)
	fmt.Printf("  %-24s %.6g ratio (%d/%d operations failed)\n", "error_rate", errRate, b.failed, b.attempted)
	for _, e := range b.errs {
		fmt.Printf("  failure: %s\n", e)
	}
	if b.invalid != "" {
		fmt.Printf("  INVALID RUN: %s\n", b.invalid)
	}
	b.checkPins()

	metrics := make(map[string]any)
	if b.tr == nil {
		for _, m := range endToEnd {
			metrics[m.name] = map[string]any{"value": e2e[m.name], "unit": m.unit}
		}
	} else {
		fmt.Println("  per-layer:")
		for _, m := range perLayer() {
			v := b.layer[m.name]
			fmt.Printf("    %-40s %.6g %s\n", m.name, v, m.unit)
			metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
		}
	}
	return json.Marshal(map[string]any{
		"correct":   b.failed == 0 && b.invalid == "",
		"attempted": b.attempted,
		"failed":    b.failed,
		"metrics":   metrics,
	})
}
