package channel

import (
	"math"
	"testing"

	"github.com/llama-surface/llama/internal/antenna"
	"github.com/llama-surface/llama/internal/metasurface"
	"github.com/llama-surface/llama/internal/units"
)

func testSurface(t *testing.T) *metasurface.Surface {
	t.Helper()
	s, err := metasurface.New(metasurface.OptimizedFR4Design(units.DefaultCarrierHz))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// matchedScene returns a clean line-of-sight scene with aligned antennas.
func matchedScene(d float64) *Scene {
	sc := DefaultScene(nil, d)
	sc.Tx.Orientation = 0 // aligned with Rx
	return sc
}

func TestValidate(t *testing.T) {
	sc := DefaultScene(nil, 0.48)
	if err := sc.Validate(); err != nil {
		t.Fatalf("default scene invalid: %v", err)
	}
	bad := []func(*Scene){
		func(s *Scene) { s.FreqHz = 0 },
		func(s *Scene) { s.TxPowerW = 0 },
		func(s *Scene) { s.Geom.TxRx = 0 },
		func(s *Scene) { s.NoiseBandwidthHz = 0 },
		func(s *Scene) { s.MeasurementSaturation = -1 },
		func(s *Scene) { s.Tx.Antenna.GainDBi = 99 },
	}
	for i, mut := range bad {
		s := DefaultScene(nil, 0.48)
		mut(s)
		if err := s.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	// Surface present without legs.
	s := DefaultScene(testSurface(t), 0.48)
	s.Geom.TxSurface = 0
	if err := s.Validate(); err == nil {
		t.Error("surface without legs accepted")
	}
}

func TestFriisAgreementWithoutSurface(t *testing.T) {
	// A matched LoS scene must reproduce the Friis equation to within
	// the antennas' XPD leakage (a fraction of a dB).
	sc := matchedScene(1.0)
	sc.Env = Absorber()
	// Friis: Pr = Pt·Gt·Gr·(λ/4πd)² at d = 1 m.
	factor := units.Wavelength(sc.FreqHz) / (4 * math.Pi * 1.0)
	want := units.WattsToDBm(sc.TxPowerW *
		units.DBToLinear(sc.Tx.Antenna.GainDBi) *
		units.DBToLinear(sc.Rx.Antenna.GainDBi) *
		factor * factor)
	got := sc.ReceivedPowerDBm()
	if math.Abs(got-want) > 0.5 {
		t.Errorf("LoS power = %v dBm, Friis says %v", got, want)
	}
}

func TestDistanceDecay(t *testing.T) {
	p1 := matchedScene(0.5).ReceivedPowerDBm()
	p2 := matchedScene(1.0).ReceivedPowerDBm()
	if math.Abs((p1-p2)-6.02) > 0.3 {
		t.Errorf("doubling distance lost %v dB, want ≈6", p1-p2)
	}
}

func TestMismatchCostsAtLeast10dB(t *testing.T) {
	// Fig. 2's premise: orthogonal orientation costs 10+ dB.
	matched := matchedScene(0.48).ReceivedPowerDBm()
	mismatched := DefaultScene(nil, 0.48).ReceivedPowerDBm()
	gap := matched - mismatched
	if gap < 10 {
		t.Errorf("mismatch gap = %v dB, want ≥ 10", gap)
	}
	if math.IsInf(mismatched, -1) {
		t.Error("mismatch should be finite (XPD leakage)")
	}
}

func TestSurfaceRecoversMismatchTransmissive(t *testing.T) {
	// The headline result (Fig. 16): with the surface at its best bias,
	// a mismatched through link gains >= 8 dB, approaching 15 dB at
	// favorable distances.
	surf := testSurface(t)
	sc := DefaultScene(surf, 0.48)
	base := DefaultScene(nil, 0.48)

	best := math.Inf(-1)
	for vx := 0.0; vx <= 30; vx += 1 {
		for vy := 0.0; vy <= 30; vy += 1 {
			surf.SetBias(vx, vy)
			if p := sc.ReceivedPowerDBm(); p > best {
				best = p
			}
		}
	}
	gain := best - base.ReceivedPowerDBm()
	if gain < 8 {
		t.Errorf("best-case surface gain = %v dB, want ≥ 8 (paper: up to 15)", gain)
	}
	if gain > 25 {
		t.Errorf("gain = %v dB is implausibly high", gain)
	}
}

func TestSurfaceBiasMattersTransmissive(t *testing.T) {
	// Fig. 15: received power varies strongly (>10 dB) across the bias
	// plane in the mismatched transmissive setup.
	surf := testSurface(t)
	sc := DefaultScene(surf, 0.48)
	min, max := math.Inf(1), math.Inf(-1)
	for vx := 0.0; vx <= 30; vx += 2 {
		for vy := 0.0; vy <= 30; vy += 2 {
			surf.SetBias(vx, vy)
			p := sc.ReceivedPowerDBm()
			if p < min {
				min = p
			}
			if p > max {
				max = p
			}
		}
	}
	if max-min < 10 {
		t.Errorf("bias dynamic range = %v dB, want ≥ 10", max-min)
	}
}

func TestOptimalBiasShiftsWithDistance(t *testing.T) {
	// Fig. 15(a–g): the best (Vx,Vy) drifts as the Tx–Rx distance
	// changes, via the surface↔Tx standing-wave term.
	surf := testSurface(t)
	argmax := func(d float64) [2]float64 {
		sc := DefaultScene(surf, d)
		best, arg := math.Inf(-1), [2]float64{}
		for vx := 0.0; vx <= 30; vx += 1.5 {
			for vy := 0.0; vy <= 30; vy += 1.5 {
				surf.SetBias(vx, vy)
				if p := sc.ReceivedPowerDBm(); p > best {
					best, arg = p, [2]float64{vx, vy}
				}
			}
		}
		return arg
	}
	a := argmax(0.24)
	b := argmax(0.36)
	c := argmax(0.54)
	if a == b && b == c {
		t.Errorf("optimal bias identical at all distances: %v", a)
	}
}

func TestReflectiveSurfaceRecoversMismatch(t *testing.T) {
	// §5.2.1 / Fig. 22: in the reflective deployment the surface bounce
	// arrives cross-polarized and rescues the mismatched direct link by
	// a large margin (paper: up to 17 dB).
	surf := testSurface(t)
	sc := DefaultScene(surf, 0.70)
	sc.Mode = metasurface.Reflective
	sc.Geom = Geometry{TxRx: 0.70, TxSurface: 0.45, SurfaceRx: 0.45}

	base := *sc
	base.Surface = nil

	best := math.Inf(-1)
	for vx := 0.0; vx <= 30; vx += 2 {
		for vy := 0.0; vy <= 30; vy += 2 {
			surf.SetBias(vx, vy)
			if p := sc.ReceivedPowerDBm(); p > best {
				best = p
			}
		}
	}
	gain := best - base.ReceivedPowerDBm()
	if gain < 10 {
		t.Errorf("reflective gain = %v dB, want ≥ 10 (paper: 17)", gain)
	}
}

func TestReflectiveBiasRangeSmallerThanTransmissive(t *testing.T) {
	// Fig. 21 vs Fig. 15: bias changes move reflective power much less.
	surf := testSurface(t)
	rangeDB := func(mode metasurface.Mode) float64 {
		sc := DefaultScene(surf, 0.70)
		sc.Mode = mode
		if mode == metasurface.Reflective {
			sc.Geom = Geometry{TxRx: 0.70, TxSurface: 0.45, SurfaceRx: 0.45}
		}
		min, max := math.Inf(1), math.Inf(-1)
		for vx := 0.0; vx <= 30; vx += 2 {
			for vy := 0.0; vy <= 30; vy += 2 {
				surf.SetBias(vx, vy)
				p := sc.ReceivedPowerDBm()
				if p < min {
					min = p
				}
				if p > max {
					max = p
				}
			}
		}
		return max - min
	}
	tr := rangeDB(metasurface.Transmissive)
	rf := rangeDB(metasurface.Reflective)
	if !(tr > rf) {
		t.Errorf("transmissive range %v dB should exceed reflective %v dB", tr, rf)
	}
}

func TestMultipathRaisesMismatchedPower(t *testing.T) {
	// §5.1.2: without the surface, multipath raises a mismatched link's
	// power (depolarized bounces leak into the Rx polarization).
	clean := DefaultScene(nil, 0.48)
	lab := DefaultScene(nil, 0.48)
	lab.Tx.Antenna = antenna.OmniWiFi
	lab.Rx.Antenna = antenna.OmniWiFi
	lab.Env = Laboratory(7, 12)
	cleanOmni := DefaultScene(nil, 0.48)
	cleanOmni.Tx.Antenna = antenna.OmniWiFi
	cleanOmni.Rx.Antenna = antenna.OmniWiFi
	if !(lab.ReceivedPowerDBm() > cleanOmni.ReceivedPowerDBm()) {
		t.Errorf("multipath should raise mismatched omni power: %v vs %v",
			lab.ReceivedPowerDBm(), cleanOmni.ReceivedPowerDBm())
	}
	_ = clean
}

func TestDirectionalSuppressesMultipath(t *testing.T) {
	// Fig. 19(b): directional antennas are robust to multipath — the
	// scattered contribution is small relative to the direct path.
	mp := Laboratory(11, 12)
	dir := matchedScene(0.48)
	dir.Env = mp
	dirClean := matchedScene(0.48)
	omni := matchedScene(0.48)
	omni.Tx.Antenna = antenna.OmniWiFi
	omni.Rx.Antenna = antenna.OmniWiFi
	omni.Env = mp
	omniClean := matchedScene(0.48)
	omniClean.Tx.Antenna = antenna.OmniWiFi
	omniClean.Rx.Antenna = antenna.OmniWiFi

	dirShift := math.Abs(dir.ReceivedPowerDBm() - dirClean.ReceivedPowerDBm())
	omniShift := math.Abs(omni.ReceivedPowerDBm() - omniClean.ReceivedPowerDBm())
	if !(dirShift < omniShift) {
		t.Errorf("directional multipath shift %v dB should be below omni %v dB", dirShift, omniShift)
	}
}

func TestNoisePowerComposition(t *testing.T) {
	sc := DefaultScene(nil, 0.48)
	sc.InterferenceFloorDBm = -60
	n := units.WattsToDBm(sc.NoisePowerW())
	// Dominated by the -60 dBm floor.
	if math.Abs(n-(-60)) > 0.1 {
		t.Errorf("noise = %v dBm, want ≈ -60", n)
	}
	sc.InterferenceFloorDBm = math.Inf(-1)
	n = units.WattsToDBm(sc.NoisePowerW())
	// Thermal only: -114 + NF 6 = -108.
	if math.Abs(n-(-108)) > 0.2 {
		t.Errorf("thermal noise = %v dBm, want ≈ -108", n)
	}
}

func TestMeasuredSNRSaturates(t *testing.T) {
	sc := matchedScene(0.3)
	sc.MeasurementSaturation = 1.7
	sc.TxPowerW = 1 // 1 W: enormous true SNR
	se := sc.SpectralEfficiency()
	ceiling := math.Log2(1 + 1/1.7)
	if se > ceiling+1e-9 {
		t.Errorf("SE %v exceeds saturation ceiling %v", se, ceiling)
	}
	if se < ceiling*0.9 {
		t.Errorf("SE %v should approach ceiling %v at 1 W", se, ceiling)
	}
	// Capacity metric grows monotonically with power.
	sc.TxPowerW = 2e-6
	low := sc.SpectralEfficiency()
	sc.TxPowerW = 2e-3
	mid := sc.SpectralEfficiency()
	if !(low < mid && mid <= ceiling) {
		t.Errorf("SE not monotone: %v, %v, ceiling %v", low, mid, ceiling)
	}
}

func TestMeasuredSNRWithoutSaturationIsTrue(t *testing.T) {
	sc := matchedScene(0.3)
	sc.MeasurementSaturation = 0
	if math.Abs(sc.MeasuredSNR()-sc.SNR()) > 1e-9*sc.SNR() {
		t.Error("saturation 0 should give true SNR")
	}
}

func TestCapacityBps(t *testing.T) {
	sc := matchedScene(0.3)
	se := units.SpectralEfficiency(sc.MeasuredSNR())
	if math.Abs(sc.CapacityBps()-se*sc.NoiseBandwidthHz) > 1 {
		t.Error("CapacityBps should equal SE × bandwidth")
	}
}

func TestLaboratoryDeterministic(t *testing.T) {
	a := Laboratory(3, 10)
	b := Laboratory(3, 10)
	if len(a.Scatterers) != len(b.Scatterers) {
		t.Fatal("scatterer count differs")
	}
	for i := range a.Scatterers {
		if a.Scatterers[i] != b.Scatterers[i] {
			t.Fatalf("scatterer %d differs between same-seed environments", i)
		}
	}
	c := Laboratory(4, 10)
	same := true
	for i := range a.Scatterers {
		if a.Scatterers[i] != c.Scatterers[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical environments")
	}
}

func TestLaboratoryPanicsNegativeCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative scatterer count should panic")
		}
	}()
	Laboratory(1, -1)
}

func TestAbsorberHasNoScatterers(t *testing.T) {
	if len(Absorber().Scatterers) != 0 {
		t.Error("absorber environment must be clean")
	}
}

func TestEndpointState(t *testing.T) {
	e := Endpoint{Antenna: antenna.DirectionalPatch, Orientation: 0.3}
	if math.Abs(e.State().Norm()-1) > 1e-9 {
		t.Error("endpoint state should be normalized")
	}
}

func TestFrequencyDependence(t *testing.T) {
	// Fig. 17: the surface keeps helping across 2.40–2.50 GHz.
	surf := testSurface(t)
	surf.SetBias(2, 15)
	for f := 2.40e9; f <= 2.50e9; f += 0.02e9 {
		sc := DefaultScene(surf, 0.48)
		sc.FreqHz = f
		base := DefaultScene(nil, 0.48)
		base.FreqHz = f
		gain := sc.ReceivedPowerDBm() - base.ReceivedPowerDBm()
		if gain < 3 {
			t.Errorf("f=%.2f GHz: surface gain %v dB, want clearly positive", f/1e9, gain)
		}
	}
}

// TestSceneTermCacheTransparent: the lazily cached endpoint and scatterer
// terms must be invisible — evaluating, mutating any cached-over field,
// and evaluating again must give bit-identical results to a fresh scene
// with the final configuration.
func TestSceneTermCacheTransparent(t *testing.T) {
	build := func() *Scene {
		sc := DefaultScene(nil, 0.48)
		sc.Env = Laboratory(7, 5)
		return sc
	}
	mutations := []struct {
		name string
		mut  func(*Scene)
	}{
		{"rx orientation", func(s *Scene) { s.Rx.Orientation = 0.3 }},
		{"tx antenna", func(s *Scene) { s.Tx.Antenna = antenna.OmniWiFi }},
		{"environment", func(s *Scene) { s.Env = Laboratory(8, 3) }},
		{"scatterer edited in place", func(s *Scene) { s.Env.Scatterers[2].PolRotation += 0.5 }},
		{"scatterers truncated", func(s *Scene) { s.Env.Scatterers = s.Env.Scatterers[:1] }},
	}
	for _, m := range mutations {
		warm := build()
		if warm.FieldTransfer() == 0 {
			t.Fatalf("%s: degenerate field", m.name)
		}
		m.mut(warm) // mutate AFTER the cache is populated
		fresh := build()
		m.mut(fresh) // fresh scene evaluated only in the final state
		got, want := warm.FieldTransfer(), fresh.FieldTransfer()
		if got != want {
			t.Errorf("%s: cached scene %v, fresh scene %v — stale terms survived mutation", m.name, got, want)
		}
	}
}

// TestSceneValueCopyDoesNotAliasTerms: Scenes are copied by value at
// several call sites (baseline comparisons, mobility timelines). A term
// rebuild in one copy must never write into backing arrays the other
// copy's still-valid cache reads from.
func TestSceneValueCopyDoesNotAliasTerms(t *testing.T) {
	orig := DefaultScene(nil, 0.48)
	orig.Env = Laboratory(3, 6)
	wantOrig := orig.FieldTransfer() // populate the original's terms

	clone := *orig
	clone.Tx.Antenna = antenna.OmniWiFi // different scatterer gains
	clone.Rx.Antenna = antenna.HalfWaveDipole
	_ = clone.FieldTransfer() // rebuild terms inside the copy

	if got := orig.FieldTransfer(); got != wantOrig {
		t.Fatalf("original scene drifted after a value copy rebuilt its terms: %v != %v", got, wantOrig)
	}
	fresh := DefaultScene(nil, 0.48)
	fresh.Env = Laboratory(3, 6)
	fresh.Tx.Antenna = antenna.OmniWiFi
	fresh.Rx.Antenna = antenna.HalfWaveDipole
	if got, want := clone.FieldTransfer(), fresh.FieldTransfer(); got != want {
		t.Fatalf("copied scene %v != fresh scene %v", got, want)
	}
}
