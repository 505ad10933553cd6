package llama

// The benchmark harness of deliverable (d): one testing.B target per
// table and figure of the paper's evaluation, plus the DESIGN.md
// ablations. Each benchmark regenerates the artefact end to end (workload
// generation, sweep, physics) so `go test -bench=.` both times the
// pipeline and re-derives every reported number. Run cmd/llama-bench to
// see the tables themselves.

import (
	"context"
	"math"
	"testing"
	"time"

	"github.com/llama-surface/llama/internal/control"
	"github.com/llama-surface/llama/internal/experiments"
	"github.com/llama-surface/llama/internal/metasurface"
	"github.com/llama-surface/llama/internal/units"
)

// benchExperiment runs a registry entry b.N times, seeding each run
// differently so caching cannot hide work.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(context.Background(), id, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

func BenchmarkFig02a(b *testing.B) { benchExperiment(b, "fig2a") }
func BenchmarkFig02b(b *testing.B) { benchExperiment(b, "fig2b") }
func BenchmarkFig08(b *testing.B)  { benchExperiment(b, "fig8") }
func BenchmarkFig09(b *testing.B)  { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)  { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)  { benchExperiment(b, "fig11") }
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "tab1") }
func BenchmarkFig12(b *testing.B)  { benchExperiment(b, "fig12") }
func BenchmarkFig15(b *testing.B)  { benchExperiment(b, "fig15") }
func BenchmarkFig16(b *testing.B)  { benchExperiment(b, "fig16") }
func BenchmarkFig17(b *testing.B)  { benchExperiment(b, "fig17") }
func BenchmarkFig18(b *testing.B)  { benchExperiment(b, "fig18") }
func BenchmarkFig19(b *testing.B)  { benchExperiment(b, "fig19") }
func BenchmarkFig20(b *testing.B)  { benchExperiment(b, "fig20") }
func BenchmarkFig21(b *testing.B)  { benchExperiment(b, "fig21") }
func BenchmarkFig22(b *testing.B)  { benchExperiment(b, "fig22") }
func BenchmarkFig23(b *testing.B)  { benchExperiment(b, "fig23") }

// Ablations and extensions (DESIGN.md §4).
func BenchmarkAblSubstrate(b *testing.B)  { benchExperiment(b, "abl-substrate") }
func BenchmarkAblLayers(b *testing.B)     { benchExperiment(b, "abl-layers") }
func BenchmarkAblSweep(b *testing.B)      { benchExperiment(b, "abl-sweep") }
func BenchmarkAblSync(b *testing.B)       { benchExperiment(b, "abl-sync") }
func BenchmarkAblBaseline(b *testing.B)   { benchExperiment(b, "abl-baseline") }
func BenchmarkAblYield(b *testing.B)      { benchExperiment(b, "abl-yield") }
func BenchmarkExt900MHz(b *testing.B)     { benchExperiment(b, "ext-900mhz") }
func BenchmarkExtMultilink(b *testing.B)  { benchExperiment(b, "ext-multilink") }
func BenchmarkExtThroughput(b *testing.B) { benchExperiment(b, "ext-throughput") }
func BenchmarkExtSchedule(b *testing.B)   { benchExperiment(b, "ext-schedule") }

// Whole-suite benchmarks: Execute's pool at one worker (serial) vs
// several widths, so the fan-out speedup (and any
// coordination overhead on small machines) is measurable.

func BenchmarkRunAllSerial(b *testing.B) { benchRunAllParallel(b, 1) }

func benchRunAllParallel(b *testing.B, workers int) {
	b.Helper()
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Execute(ctx, experiments.Options{Concurrency: workers, Seeds: []int64{int64(i + 1)}})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Results) == 0 {
			b.Fatal("no results")
		}
	}
}

func BenchmarkRunAllParallel2(b *testing.B)        { benchRunAllParallel(b, 2) }
func BenchmarkRunAllParallel8(b *testing.B)        { benchRunAllParallel(b, 8) }
func BenchmarkRunAllParallelMaxProcs(b *testing.B) { benchRunAllParallel(b, 0) }

// Row-sharded whole-suite benchmarks: same pool widths with every sweep
// split into per-point jobs. Comparing RunAllSharded* against
// RunAllParallel* isolates what interleaving row jobs into the queue buys
// (and costs, on small machines).

func benchRunAllSharded(b *testing.B, workers int) {
	b.Helper()
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Execute(ctx, experiments.Options{Concurrency: workers, ShardRows: true, Seeds: []int64{int64(i + 1)}})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Results) == 0 {
			b.Fatal("no results")
		}
	}
}

func BenchmarkRunAllSharded2(b *testing.B)        { benchRunAllSharded(b, 2) }
func BenchmarkRunAllSharded8(b *testing.B)        { benchRunAllSharded(b, 8) }
func BenchmarkRunAllShardedMaxProcs(b *testing.B) { benchRunAllSharded(b, 0) }

// Single-experiment serial-vs-sharded benchmarks: the case the sharding
// exists for. A lone long sweep (fig15's seven full bias-plane scans)
// bounds wall-clock for an unsharded (whole-axis) job no matter how many
// workers it has; sharding its rows is the only way -parallel helps a
// single -run.

func benchSingleExperiment(b *testing.B, id string, workers int, shard bool) {
	b.Helper()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Execute(ctx, experiments.Options{Concurrency: workers, IDs: []string{id}, ShardRows: shard, Seeds: []int64{int64(i + 1)}})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Results) != 1 {
			b.Fatalf("got %d results", len(rep.Results))
		}
	}
}

func BenchmarkFig15Serial(b *testing.B)   { benchSingleExperiment(b, "fig15", 1, false) }
func BenchmarkFig15Sharded4(b *testing.B) { benchSingleExperiment(b, "fig15", 4, true) }
func BenchmarkFig15Sharded8(b *testing.B) { benchSingleExperiment(b, "fig15", 8, true) }

// BenchmarkFig15SerialUncached is the A/B counterpart of
// BenchmarkFig15Serial with the response cache disabled: the ratio of
// the two is the measured cache speedup on the bias-plane scan workload.
func BenchmarkFig15SerialUncached(b *testing.B) {
	metasurface.SetCaching(false)
	defer metasurface.SetCaching(true)
	benchSingleExperiment(b, "fig15", 1, false)
}
func BenchmarkFig19Serial(b *testing.B)       { benchSingleExperiment(b, "fig19", 1, false) }
func BenchmarkFig19Sharded8(b *testing.B)     { benchSingleExperiment(b, "fig19", 8, true) }
func BenchmarkExt900MHzSerial(b *testing.B)   { benchSingleExperiment(b, "ext-900mhz", 1, false) }
func BenchmarkExt900MHzSharded8(b *testing.B) { benchSingleExperiment(b, "ext-900mhz", 8, true) }

// BenchmarkReplicate5Seeds times the multi-seed aggregation path the
// paper-style error-bar tables use.
func BenchmarkReplicate5Seeds(b *testing.B) {
	ctx := context.Background()
	opts := experiments.Options{IDs: []string{"fig16", "tab1", "fig22"}, Seeds: []int64{1, 2, 3, 4, 5}}
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Execute(ctx, opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Replicated) != 3 {
			b.Fatalf("replicated %d experiments", len(rep.Replicated))
		}
	}
}

// Micro-benchmarks of the hot paths underneath the experiments, so
// regressions in the physics kernels are visible independent of the
// workload plumbing.

func BenchmarkSurfaceJonesTransmissive(b *testing.B) {
	surf := NewSurface(OptimizedFR4(DefaultCarrierHz))
	surf.SetBias(8, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := surf.JonesTransmissive(DefaultCarrierHz)
		if m.MaxAbs() == 0 {
			b.Fatal("degenerate Jones matrix")
		}
	}
}

func BenchmarkSurfaceJonesReflective(b *testing.B) {
	surf := NewSurface(OptimizedFR4(DefaultCarrierHz))
	surf.SetBias(8, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := surf.JonesReflective(DefaultCarrierHz)
		if m.MaxAbs() == 0 {
			b.Fatal("degenerate Jones matrix")
		}
	}
}

func BenchmarkSceneFieldTransfer(b *testing.B) {
	surf := NewSurface(OptimizedFR4(DefaultCarrierHz))
	surf.SetBias(8, 8)
	sc := MismatchedLink(surf, 0.48)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if h := sc.FieldTransfer(); h == 0 {
			b.Fatal("null field")
		}
	}
}

// BenchmarkSurfaceJonesTransmissiveUncached isolates the raw physics
// kernel (cache bypassed): comparing against the cached benchmark above
// shows what memoization buys per evaluation.
func BenchmarkSurfaceJonesTransmissiveUncached(b *testing.B) {
	metasurface.SetCaching(false)
	defer metasurface.SetCaching(true)
	surf := NewSurface(OptimizedFR4(DefaultCarrierHz))
	surf.SetBias(8, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := surf.JonesTransmissive(DefaultCarrierHz)
		if m.MaxAbs() == 0 {
			b.Fatal("degenerate Jones matrix")
		}
	}
}

// scanSteps is the per-axis resolution of the bias-plane scan A/B
// benchmarks: 21×21 = 441 operating points per iteration, the shape of
// the fig15/fig16 sweeps.
const scanSteps = 21

// benchBiasPlaneScan sweeps the full (vx, vy) bias plane at the carrier
// once per iteration. The per-point jitter makes every axis bias value a
// first touch for the exact table (axis entries are keyed by bias, so a
// plain grid would reuse each value 21×), so the exact number measures
// compute-and-memoize cost rather than a warm rerun.
func benchBiasPlaneScan(b *testing.B) {
	b.Helper()
	surf := NewSurface(OptimizedFR4(DefaultCarrierHz))
	b.ReportAllocs()
	b.ResetTimer()
	sink := 0.0
	for i := 0; i < b.N; i++ {
		for x := 0; x < scanSteps; x++ {
			for y := 0; y < scanSteps; y++ {
				// Unique per point for the first ~2268 iterations (CI runs
				// 100), bounded ≤1 V so the scan stays inside the 0–30 V
				// control range.
				p := (i*scanSteps+x)*scanSteps + y
				off := float64(p%1_000_000) * 1e-6
				surf.SetBias(float64(x)*1.4+off, float64(y)*1.4+off)
				sink += surf.JonesTransmissive(DefaultCarrierHz).MaxAbs()
			}
		}
	}
	if sink == 0 {
		b.Fatal("degenerate scan")
	}
}

// BenchmarkBiasPlaneScanExact / ...Uncached are the cached/uncached A/B
// of the first-touch scan: the gap is what the response table saves on
// compute-and-memoize work.
func BenchmarkBiasPlaneScanExact(b *testing.B) { benchBiasPlaneScan(b) }

func BenchmarkBiasPlaneScanUncached(b *testing.B) {
	metasurface.SetCaching(false)
	defer metasurface.SetCaching(true)
	benchBiasPlaneScan(b)
}

// BenchmarkBiasPlaneScanParallel scans the warm 21×21 bias plane from
// many goroutines at once (run with -cpu 1,8), every goroutine owning
// its own Surface of the shared design — the contention shape of the
// sharded engine and the fleet workers. One op is one full plane scan
// resolved through the batch API against the design's shared table;
// after the untimed prewarm every lookup is a published-snapshot hit,
// so scaling between the -cpu runs measures read-path contention and
// nothing else.
func BenchmarkBiasPlaneScanParallel(b *testing.B) {
	pts := make([]BatchPoint, 0, scanSteps*scanSteps)
	for x := 0; x < scanSteps; x++ {
		for y := 0; y < scanSteps; y++ {
			pts = append(pts, BatchPoint{F: DefaultCarrierHz, VX: float64(x) * 1.4, VY: float64(y) * 1.4})
		}
	}
	// Prewarm (and publish) the whole working set untimed.
	NewSurface(OptimizedFR4(DefaultCarrierHz)).Warm(pts)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		surf := NewSurface(OptimizedFR4(DefaultCarrierHz))
		var dst []Mat2
		for pb.Next() {
			dst = surf.JonesBatch(Transmissive, pts, dst)
			if dst[0].MaxAbs() == 0 {
				b.Fatal("degenerate scan")
			}
		}
	})
}

func BenchmarkClosedLoopSweep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		loop, err := NewLoop(LoopConfig{Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := loop.Optimize(context.Background()); err != nil {
			b.Fatal(err)
		}
		if loop.GainDB() < 3 {
			b.Fatalf("closed loop gained only %.1f dB", loop.GainDB())
		}
	}
}

func BenchmarkCoarseToFineAlgorithm(b *testing.B) {
	surf := NewSurface(OptimizedFR4(DefaultCarrierHz))
	sc := MismatchedLink(surf, 0.48)
	act := control.ActuatorFunc(func(vx, vy float64) error { surf.SetBias(vx, vy); return nil })
	sen := control.SensorFunc(func() (float64, error) { return sc.ReceivedPowerDBm(), nil })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := control.CoarseToFine(context.Background(), control.DefaultSweepConfig(), act, sen); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDesignCalibration(b *testing.B) {
	d := OptimizedFR4(DefaultCarrierHz)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pitch := d.CalibrateLoadPitch(units.Radians(97), 0.9, 15)
		if math.IsNaN(pitch) || pitch <= 0 {
			b.Fatal("bad calibration")
		}
	}
}

func BenchmarkRotationExtraction(b *testing.B) {
	surf := NewSurface(OptimizedFR4(DefaultCarrierHz))
	surf.SetBias(2, 15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := surf.RotationDegrees(DefaultCarrierHz); r <= 0 {
			b.Fatal("no rotation")
		}
	}
}

func BenchmarkLatticeAggregation(b *testing.B) {
	lat, err := ManufacturePanel(OptimizedFR4(DefaultCarrierHz), DefaultLatticeSpec(), 1)
	if err != nil {
		b.Fatal(err)
	}
	lat.SetBias(2, 15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := lat.RotationDegrees(DefaultCarrierHz); r <= 0 {
			b.Fatal("no rotation")
		}
	}
}

func BenchmarkTrackerStep(b *testing.B) {
	loop, err := NewLoop(LoopConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	tr, err := loop.NewTracker(DefaultTrackerConfig())
	if err != nil {
		b.Fatal(err)
	}
	if err := tr.Start(context.Background()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tr.Step(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRateAdaptation(b *testing.B) {
	table := WiFi11gRates()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tp := AdaptedThroughput(table, 100, 1500); tp <= 0 {
			b.Fatal("no throughput")
		}
	}
}

// BenchmarkNetworkedLoop times the full socket round trip: SCPI program,
// UDP telemetry, one sweep step.
func BenchmarkNetworkedLoop(b *testing.B) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	loop, err := StartNetworkedLoop(ctx, LoopConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer loop.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := loop.Optimize(ctx); err != nil {
			b.Fatal(err)
		}
	}
	_ = metasurface.Transmissive
}
