package metasurface

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"github.com/llama-surface/llama/internal/mat2"
	"github.com/llama-surface/llama/internal/units"
)

// batchTestPoints builds a deterministic operating-point set spanning
// the band and control range, including repeated points (batch dedup),
// out-of-range biases (clamping) and an out-of-band frequency.
func batchTestPoints() []BatchPoint {
	rng := rand.New(rand.NewSource(11))
	pts := []BatchPoint{
		{F: units.DefaultCarrierHz, VX: 8, VY: 8},
		{F: units.DefaultCarrierHz, VX: 8, VY: 8}, // duplicate of the above
		{F: 2.0e9, VX: 0, VY: 30},
		{F: 2.8e9, VX: 30, VY: 0},
		{F: 2.45e9, VX: -3, VY: 99}, // clamps to the control range
		{F: 1.0e9, VX: 5, VY: 5},    // far below the band
	}
	for i := 0; i < 40; i++ {
		pts = append(pts, BatchPoint{
			F:  2.0e9 + 0.8e9*rng.Float64(),
			VX: 30 * rng.Float64(),
			VY: 30 * rng.Float64(),
		})
	}
	return pts
}

// scalarJones is the reference path a batch point must reproduce:
// SetBias then a scalar Jones query.
func scalarJones(s *Surface, mode Mode, p BatchPoint) mat2.Mat {
	s.SetBias(p.VX, p.VY)
	return s.Jones(mode, p.F)
}

// TestBatchMatchesScalarAllModes is determinism invariant #11: JonesBatch
// must be bit-identical to the scalar SetBias+Jones loop in every cache
// mode — cached and caching disabled — and both modes must also match
// the uncached evaluation (invariant #10 composed with #11). Run under
// -race this also certifies the grouped miss path.
func TestBatchMatchesScalarAllModes(t *testing.T) {
	ResetResponseTables()
	d := OptimizedFR4Design(units.DefaultCarrierHz)
	pts := batchTestPoints()

	// Uncached reference, computed before any cache exists.
	SetCaching(false)
	ref := make(map[Mode][]mat2.Mat)
	for _, mode := range []Mode{Transmissive, Reflective} {
		s := MustNew(d)
		for _, p := range pts {
			ref[mode] = append(ref[mode], scalarJones(s, mode, p))
		}
	}
	SetCaching(true)

	check := func(t *testing.T, name string) {
		t.Helper()
		for _, mode := range []Mode{Transmissive, Reflective} {
			scalar := MustNew(d)
			batch := MustNew(d)
			got := batch.JonesBatch(mode, pts, nil)
			if len(got) != len(pts) {
				t.Fatalf("%s mode %v: JonesBatch returned %d results for %d points", name, mode, len(got), len(pts))
			}
			for i, p := range pts {
				want := scalarJones(scalar, mode, p)
				if !sameMat(got[i], want) {
					t.Fatalf("%s mode %v point %d (%+v): batch %v != scalar %v", name, mode, i, p, got[i], want)
				}
			}
			// A second batch over the same points (pure hit path) must
			// return the same bits, reusing the destination slice.
			again := batch.JonesBatch(mode, pts, got)
			for i := range pts {
				if !sameMat(again[i], ref[mode][i]) {
					t.Fatalf("%s mode %v point %d: cached batch diverged from uncached reference", name, mode, i)
				}
			}
		}
	}

	t.Run("exact-cached", func(t *testing.T) {
		check(t, "exact-cached")
		// And against the uncached reference directly.
		for _, mode := range []Mode{Transmissive, Reflective} {
			s := MustNew(d)
			for i, m := range s.JonesBatch(mode, pts, nil) {
				if !sameMat(m, ref[mode][i]) {
					t.Fatalf("mode %v point %d: cached batch != uncached reference", mode, i)
				}
			}
		}
	})
	t.Run("disabled", func(t *testing.T) {
		SetCaching(false)
		defer SetCaching(true)
		check(t, "disabled")
	})
}

// TestJonesBatchEmptyAndDst covers the trivial edges: an empty batch
// returns an empty (possibly reused) slice and touches no counters.
func TestJonesBatchEmptyAndDst(t *testing.T) {
	ResetResponseTables()
	s := MustNew(OptimizedFR4Design(units.DefaultCarrierHz))
	since := window()
	if got := s.JonesBatch(Transmissive, nil, nil); len(got) != 0 {
		t.Fatalf("empty batch returned %d results", len(got))
	}
	if st := since(); st.Lookups() != 0 {
		t.Fatalf("empty batch recorded %d lookups", st.Lookups())
	}
	dst := make([]mat2.Mat, 0, 8)
	got := s.JonesBatch(Transmissive, []BatchPoint{{F: units.DefaultCarrierHz, VX: 8, VY: 8}}, dst)
	if len(got) != 1 || cap(got) != 8 {
		t.Fatalf("dst reuse: len %d cap %d, want 1/8", len(got), cap(got))
	}
}

// TestSingleflightBoundsRedundantEvals hammers the singleflight grouping
// from both entry points at once, every goroutine released together.
// Half the workers race scalar lookups over one fresh snapMap key set:
// eval must run EXACTLY once per distinct key, not once per goroutine.
// The other half race JonesBatch over one fresh point set that repeats
// points within a batch: the design's table must record exactly one
// miss per distinct axis and QWP key, and every batch must match the
// uncached reference. Run under -race.
func TestSingleflightBoundsRedundantEvals(t *testing.T) {
	const workers = 16
	const keys = 64
	m := newSnapMap[int, int]()
	var evals atomic.Uint64
	eval := func(k int) int {
		evals.Add(1)
		return k * 31
	}

	ResetResponseTables()
	d := OptimizedFR4Design(units.DefaultCarrierHz)
	pts := batchTestPoints()
	pts = append(pts, pts[len(pts)-8:]...) // repeats within the batch
	SetCaching(false)
	ref := MustNew(d).JonesBatch(Transmissive, pts, nil)
	SetCaching(true)
	distinctAxis := make(map[axisKey]bool)
	distinctQWP := make(map[float64]bool)
	for _, p := range pts {
		for _, k := range []axisKey{
			{axis: AxisX, f: math.Float64bits(p.F), v: math.Float64bits(units.Clamp(p.VX, d.MinBiasV, d.MaxBiasV))},
			{axis: AxisY, f: math.Float64bits(p.F), v: math.Float64bits(units.Clamp(p.VY, d.MinBiasV, d.MaxBiasV))},
		} {
			distinctAxis[k] = true
		}
		distinctQWP[p.F] = true
	}

	since := window()
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			if w%2 == 0 {
				// Scalar snapMap lookups, each worker in a different key order.
				for i := 0; i < keys; i++ {
					k := (i*7 + w) % keys
					if v, _ := m.lookup(k, func() int { return eval(k) }); v != k*31 {
						errs <- "scalar lookup returned a wrong value"
						return
					}
				}
				return
			}
			got := MustNew(d).JonesBatch(Transmissive, pts, nil)
			for i := range pts {
				if !sameMat(got[i], ref[i]) {
					errs <- "JonesBatch diverged from the uncached reference"
					return
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if n := evals.Load(); n != keys {
		t.Fatalf("%d evaluations for %d distinct keys; singleflight must bound redundant evals at zero", n, keys)
	}
	if got := m.size(); got != keys {
		t.Fatalf("map holds %d entries, want %d", got, keys)
	}
	want := uint64(len(distinctAxis) + len(distinctQWP))
	if st := since(); st.Misses != want {
		t.Fatalf("table recorded %d misses for %d distinct axis+QWP keys; singleflight must evaluate each once", st.Misses, want)
	}
}

// TestSnapshotPublicationRace races readers of a hot key set against
// writers continuously inserting fresh keys (forcing copy-on-write
// publishes mid-read) across several seeds and goroutine counts. Every
// read must return the precomputed reference bits — a reader sees the
// old snapshot or the new one, never a torn map — and the hit/miss
// counter must account every lookup exactly (it never under-counts).
// Run under -race this is the
// publication-safety certificate for the whole design.
func TestSnapshotPublicationRace(t *testing.T) {
	d := OptimizedFR4Design(units.DefaultCarrierHz)
	for _, seed := range []int64{1, 7} {
		for _, readers := range []int{1, 4, 8} {
			// Reference responses for the hot keys, straight from the pure
			// evaluation (no cache involved).
			rng := rand.New(rand.NewSource(seed))
			type hotKey struct {
				axis Axis
				f, v float64
			}
			hot := make([]hotKey, 24)
			refs := make([]axisResponse, len(hot))
			for i := range hot {
				axis := AxisX
				if i%2 == 1 {
					axis = AxisY
				}
				hot[i] = hotKey{axis: axis, f: 2.0e9 + 0.8e9*rng.Float64(), v: 30 * rng.Float64()}
				refs[i] = d.axisEval(hot[i].axis, hot[i].f, hot[i].v)
			}

			tbl := newResponseTable("race-test")
			since := window()
			const rounds = 300
			errs := make(chan string, readers)
			var lookups atomic.Uint64

			// Writer: a stream of fresh keys keeps pending non-empty and
			// publishes churning while readers hold old snapshots.
			stop := make(chan struct{})
			var writerWG sync.WaitGroup
			writerWG.Add(1)
			go func() {
				defer writerWG.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					v := 0.001 * float64(i+1)
					tbl.axisAt(&d, AxisX, 2.31e9, v, uint32(i))
					lookups.Add(1)
				}
			}()
			var readerWG sync.WaitGroup
			for r := 0; r < readers; r++ {
				readerWG.Add(1)
				go func(r int) {
					defer readerWG.Done()
					for i := 0; i < rounds; i++ {
						ki := (i + r) % len(hot)
						k := hot[ki]
						got := tbl.axisAt(&d, k.axis, k.f, k.v, uint32(r))
						lookups.Add(1)
						if !sameC(got.s.S21, refs[ki].s.S21) || !sameC(got.shortGamma, refs[ki].shortGamma) {
							errs <- "axis response diverged from the pure evaluation under publication churn"
							return
						}
					}
				}(r)
			}
			readerWG.Wait()
			close(stop)
			writerWG.Wait()
			close(errs)
			for e := range errs {
				t.Fatalf("seed %d readers %d: %s", seed, readers, e)
			}
			if st := since(); st.Lookups() != lookups.Load() {
				t.Fatalf("seed %d readers %d: counter saw %d lookups, %d performed — it must never under-count",
					seed, readers, st.Lookups(), lookups.Load())
			}
		}
	}
}

// TestStatShardPadding pins the anti-false-sharing layout: each counter
// shard must occupy a whole number of 64-byte cache lines so adjacent
// shards never share one, and the sharded pair must be exactly its
// shards (no stray header pulling slot 0 onto a shared line).
func TestStatShardPadding(t *testing.T) {
	if sz := unsafe.Sizeof(statShard{}); sz%64 != 0 || sz == 0 {
		t.Fatalf("statShard is %d bytes; must be a non-zero multiple of the 64-byte cache line", sz)
	}
	if sz, want := unsafe.Sizeof(shardedStats{}), uintptr(statShards)*unsafe.Sizeof(statShard{}); sz != want {
		t.Fatalf("shardedStats is %d bytes, want %d (shards only, densely packed)", sz, want)
	}
}
