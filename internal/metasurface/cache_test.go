package metasurface

import (
	"math"
	"sync"
	"testing"

	"github.com/llama-surface/llama/internal/mat2"
	"github.com/llama-surface/llama/internal/units"
)

// sameMat compares two Jones matrices by raw float bit patterns — the
// literal "cached ≡ uncached" contract, with no tolerance to hide behind.
func sameMat(a, b mat2.Mat) bool {
	return sameC(a.A, b.A) && sameC(a.B, b.B) && sameC(a.C, b.C) && sameC(a.D, b.D)
}

func sameC(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// denseGrid is the (f, bias) grid the transparency tests sweep: frequency
// across the band including off-center values, bias across the control
// range including the non-representable 0.1-style values a FullScan
// produces.
var denseFreqs = []float64{2.0e9, 2.35e9, units.DefaultCarrierHz, 2.47712e9, 2.8e9}
var denseBiases = []float64{0, 0.1, 1.5, 2, 7.3, 8, 14.999, 15, 29.9, 30}

// TestCacheTransparent: every cached query must be bit-identical to the
// uncached evaluation over a dense (f, bias) grid — hits and misses
// alike, for every Surface method that draws on the response cache.
func TestCacheTransparent(t *testing.T) {
	d := OptimizedFR4Design(units.DefaultCarrierHz)
	cached := MustNew(d)
	uncached := MustNew(d)
	for _, vx := range denseBiases {
		for _, vy := range denseBiases[:4] { // full × full is slow; a band suffices
			for _, f := range denseFreqs {
				cached.SetBias(vx, vy)
				uncached.SetBias(vx, vy)
				// Two passes over the cached surface: the first populates
				// (miss path), the second must return the stored bits (hit
				// path). Both must equal the uncached evaluation.
				SetCaching(false)
				wantT := uncached.JonesTransmissive(f)
				wantR := uncached.JonesReflective(f)
				wantFront := uncached.FrontReflection(f)
				wantEff := uncached.Efficiency(AxisX, f)
				wantPhase := uncached.DifferentialPhase(f)
				SetCaching(true)
				for pass := 0; pass < 2; pass++ {
					if got := cached.JonesTransmissive(f); !sameMat(got, wantT) {
						t.Fatalf("JonesTransmissive(%g) pass %d at (%g,%g): cached %v != uncached %v", f, pass, vx, vy, got, wantT)
					}
					if got := cached.JonesReflective(f); !sameMat(got, wantR) {
						t.Fatalf("JonesReflective(%g) pass %d at (%g,%g): cached != uncached", f, pass, vx, vy)
					}
					if got := cached.FrontReflection(f); !sameC(got, wantFront) {
						t.Fatalf("FrontReflection(%g) pass %d at (%g,%g): cached %v != uncached %v", f, pass, vx, vy, got, wantFront)
					}
					if got := cached.Efficiency(AxisX, f); math.Float64bits(got) != math.Float64bits(wantEff) {
						t.Fatalf("Efficiency(%g) pass %d at (%g,%g): cached %v != uncached %v", f, pass, vx, vy, got, wantEff)
					}
					if got := cached.DifferentialPhase(f); math.Float64bits(got) != math.Float64bits(wantPhase) {
						t.Fatalf("DifferentialPhase(%g) pass %d at (%g,%g): cached %v != uncached %v", f, pass, vx, vy, got, wantPhase)
					}
				}
			}
		}
	}
}

// TestCacheHitMissAccounting pins the counter arithmetic: one
// JonesTransmissive costs two axis evaluations plus one QWP evaluation,
// so a surface backed by a fresh design table misses 3 times and a
// repeat hits 3 times. Tables are design-keyed and process-wide, so the
// test resets the registry first — otherwise any earlier test using the
// same design would have pre-warmed the entries.
func TestCacheHitMissAccounting(t *testing.T) {
	ResetResponseTables()
	s := MustNew(OptimizedFR4Design(units.DefaultCarrierHz))
	s.SetBias(8, 8)
	f := units.DefaultCarrierHz
	since := window()
	if st := since(); st.Lookups() != 0 {
		t.Fatalf("building a surface counted %d lookups", st.Lookups())
	}
	s.JonesTransmissive(f)
	if st := since(); st.Hits != 0 || st.Misses != 3 {
		t.Fatalf("first evaluation: %+v, want 0 hits / 3 misses", st)
	}
	s.JonesTransmissive(f)
	if st := since(); st.Hits != 3 || st.Misses != 3 {
		t.Fatalf("repeat evaluation: %+v, want 3 hits / 3 misses", st)
	}
	// FrontReflection reuses the axis entries the Jones call populated.
	s.FrontReflection(f)
	if st := since(); st.Hits != 5 || st.Misses != 3 {
		t.Fatalf("front reflection: %+v, want 5 hits / 3 misses", st)
	}
	// A new bias point misses on the changed axes but still hits the QWP.
	s.SetBias(8, 9)
	s.JonesTransmissive(f)
	if st := since(); st.Hits != 7 || st.Misses != 4 {
		t.Fatalf("new Vy: %+v, want 7 hits / 4 misses (X axis + QWP hit, Y axis miss)", st)
	}
	if hr := since().HitRate(); hr <= 0.5 || hr >= 1 {
		t.Errorf("hit rate = %v, want in (0.5, 1)", hr)
	}
}

// window starts a windowed read of the one hit/miss counter and returns
// the function that reports the lookups counted since. No test in this
// package calls t.Parallel, so a window sees only its own test's
// lookups.
func window() func() CacheStats {
	before := GlobalCacheStats()
	return func() CacheStats { return GlobalCacheStats().Sub(before) }
}

// TestCacheDisabledCountsNothing: with caching off the counters must not
// advance (the evaluation bypasses the cache entirely).
func TestCacheDisabledCountsNothing(t *testing.T) {
	SetCaching(false)
	defer SetCaching(true)
	if CachingEnabled() {
		t.Fatal("SetCaching(false) did not take")
	}
	s := MustNew(OptimizedFR4Design(units.DefaultCarrierHz))
	s.SetBias(8, 8)
	since := window()
	s.JonesTransmissive(units.DefaultCarrierHz)
	s.JonesReflective(units.DefaultCarrierHz)
	if st := since(); st.Lookups() != 0 {
		t.Fatalf("disabled cache recorded %d lookups", st.Lookups())
	}
}

// TestGlobalCacheStats: the process-wide counters aggregate across
// surfaces and window cleanly. Two surfaces of the same design share one
// response table, so the second surface's identical query hits the
// entries the first one computed — the global view must show exactly
// one computation of the shared physics, not two.
func TestGlobalCacheStats(t *testing.T) {
	ResetResponseTables()
	since := window()
	a := MustNew(OptimizedFR4Design(units.DefaultCarrierHz))
	b := MustNew(OptimizedFR4Design(units.DefaultCarrierHz))
	a.SetBias(8, 8)
	b.SetBias(8, 8)
	a.JonesTransmissive(units.DefaultCarrierHz)
	if st := since(); st.Hits != 0 || st.Misses != 3 {
		t.Fatalf("first surface = %+v, want 0 hits / 3 misses", st)
	}
	b.JonesTransmissive(units.DefaultCarrierHz)
	g := since()
	if g.Misses != 3 || g.Hits != 3 {
		t.Fatalf("global stats = %+v, want 3 misses (first surface computes) + 3 hits (same-design sibling reuses)", g)
	}
	a.JonesTransmissive(units.DefaultCarrierHz)
	now := since()
	if now.Hits != 6 {
		t.Fatalf("global stats = %+v, want 6 hits", now)
	}
	if d := now.Sub(g); d.Hits != 3 || d.Misses != 0 {
		t.Errorf("windowed delta = %+v, want 3 hits / 0 misses", d)
	}
}

// TestCacheStatsZeroValue covers the accessors' empty edges.
func TestCacheStatsZeroValue(t *testing.T) {
	var st CacheStats
	if st.HitRate() != 0 || st.Lookups() != 0 {
		t.Errorf("zero stats: rate %v, lookups %d", st.HitRate(), st.Lookups())
	}
}

// TestCacheConcurrentStress shares ONE cached surface across many
// goroutines hammering the same small (f) set with a fixed bias — the
// read-mostly regime the engine's workers would produce — and checks
// every result against the serially precomputed reference. Run under
// -race this certifies the cache's synchronization.
func TestCacheConcurrentStress(t *testing.T) {
	ResetResponseTables()
	d := OptimizedFR4Design(units.DefaultCarrierHz)
	shared := MustNew(d)
	shared.SetBias(2, 15)

	// Reference values from an uncached evaluation (global switch off,
	// before any goroutines exist).
	SetCaching(false)
	ref := MustNew(d)
	ref.SetBias(2, 15)
	type want struct {
		t, r  mat2.Mat
		front complex128
		eff   float64
	}
	wants := make([]want, len(denseFreqs))
	for i, f := range denseFreqs {
		wants[i] = want{
			t:     ref.JonesTransmissive(f),
			r:     ref.JonesReflective(f),
			front: ref.FrontReflection(f),
			eff:   ref.Efficiency(AxisY, f),
		}
	}
	SetCaching(true)

	const workers = 8
	const rounds = 200
	since := window()
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				fi := (i + w) % len(denseFreqs)
				f := denseFreqs[fi]
				if got := shared.JonesTransmissive(f); !sameMat(got, wants[fi].t) {
					errs <- "JonesTransmissive diverged under concurrency"
					return
				}
				if got := shared.JonesReflective(f); !sameMat(got, wants[fi].r) {
					errs <- "JonesReflective diverged under concurrency"
					return
				}
				if got := shared.FrontReflection(f); !sameC(got, wants[fi].front) {
					errs <- "FrontReflection diverged under concurrency"
					return
				}
				if got := shared.Efficiency(AxisY, f); math.Float64bits(got) != math.Float64bits(wants[fi].eff) {
					errs <- "Efficiency diverged under concurrency"
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	// Everything after the first computation per (axis/QWP, f) key must
	// hit; concurrent first touches may duplicate a miss per worker, but
	// never more.
	st := since()
	if st.Hits == 0 {
		t.Error("stress run recorded no hits")
	}
	if limit := uint64(3 * len(denseFreqs) * workers); st.Misses > limit {
		t.Errorf("miss count %d exceeds the %d concurrent-first-touch bound", st.Misses, limit)
	}
}
