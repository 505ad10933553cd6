package metasurface

import (
	"math"
	"testing"

	"github.com/llama-surface/llama/internal/units"
)

func idealSpec() LatticeSpec { return LatticeSpec{} }

func TestLatticeSpecValidate(t *testing.T) {
	if err := DefaultLatticeSpec().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []LatticeSpec{
		{BiasSpreadV: -1},
		{LossSpreadDB: -1},
		{DetuneSpread: -1},
		{FailureRate: -0.1},
		{FailureRate: 1.5},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d accepted", i)
		}
	}
}

func TestNewLatticeValidation(t *testing.T) {
	d := OptimizedFR4Design(units.DefaultCarrierHz)
	if _, err := NewLattice(d, LatticeSpec{FailureRate: 2}, 1); err == nil {
		t.Error("bad spec accepted")
	}
	d.BFSLayers = 0
	if _, err := NewLattice(d, idealSpec(), 1); err == nil {
		t.Error("bad design accepted")
	}
}

func TestMustNewLatticePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNewLattice should panic")
		}
	}()
	d := OptimizedFR4Design(units.DefaultCarrierHz)
	d.BFSLayers = 0
	MustNewLattice(d, idealSpec(), 1)
}

func TestIdealLatticeMatchesSurface(t *testing.T) {
	// With zero spread and zero failures, the lattice aggregate must
	// equal the homogeneous surface.
	d := OptimizedFR4Design(units.DefaultCarrierHz)
	lat := MustNewLattice(d, idealSpec(), 1)
	surf := MustNew(d)
	f0 := units.DefaultCarrierHz
	for _, bias := range [][2]float64{{2, 15}, {8, 8}, {15, 2}} {
		lat.SetBias(bias[0], bias[1])
		surf.SetBias(bias[0], bias[1])
		if !lat.JonesTransmissive(f0).ApproxEqual(surf.JonesTransmissive(f0), 1e-9) {
			t.Errorf("ideal lattice diverges from surface at bias %v", bias)
		}
		if math.Abs(lat.RotationDegrees(f0)-surf.RotationDegrees(f0)) > 1e-6 {
			t.Errorf("rotation mismatch at bias %v", bias)
		}
	}
}

func TestLatticeCounts(t *testing.T) {
	d := OptimizedFR4Design(units.DefaultCarrierHz)
	lat := MustNewLattice(d, idealSpec(), 1)
	if lat.Units() != 180 {
		t.Errorf("units = %d, want 180", lat.Units())
	}
	if lat.FailedUnits() != 0 {
		t.Errorf("ideal lattice has %d failures", lat.FailedUnits())
	}
	if lat.Design().Name != d.Name {
		t.Error("design accessor")
	}
}

func TestLatticeSetBiasClamps(t *testing.T) {
	lat := MustNewLattice(OptimizedFR4Design(units.DefaultCarrierHz), idealSpec(), 1)
	lat.SetBias(-3, 99)
	vx, vy := lat.Bias()
	if vx != 0 || vy != 30 {
		t.Errorf("bias = (%v, %v)", vx, vy)
	}
}

func TestFabricationSpreadDegradesGracefully(t *testing.T) {
	// Realistic spread should cost a little rotation and a fraction of a
	// dB — not collapse the response.
	d := OptimizedFR4Design(units.DefaultCarrierHz)
	lat := MustNewLattice(d, DefaultLatticeSpec(), 7)
	rep, err := lat.Yield(units.DefaultCarrierHz, 2, 15)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.RotationLossDeg) > 10 {
		t.Errorf("rotation loss %v° too large for default spread", rep.RotationLossDeg)
	}
	if rep.EfficiencyLossDB > 2 || rep.EfficiencyLossDB < -1 {
		t.Errorf("efficiency loss %v dB out of band", rep.EfficiencyLossDB)
	}
}

// TestYieldRotationMatchesLattice: the rotation Yield returns is the
// panel's own RotationDegrees at the compared bias, bit for bit, for
// every failure rate abl-yield sweeps.
func TestYieldRotationMatchesLattice(t *testing.T) {
	d := OptimizedFR4Design(units.DefaultCarrierHz)
	f0 := units.DefaultCarrierHz
	for _, rate := range []float64{0, 0.005, 0.02, 0.05, 0.15, 0.30} {
		spec := DefaultLatticeSpec()
		spec.FailureRate = rate
		lat := MustNewLattice(d, spec, 1)
		rep, err := lat.Yield(f0, 2, 15)
		if err != nil {
			t.Fatal(err)
		}
		ref := MustNewLattice(d, spec, 1)
		ref.SetBias(2, 15)
		if got, want := rep.RotationDeg, ref.RotationDegrees(f0); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("rate %v: Yield rotation %v, RotationDegrees %v", rate, got, want)
		}
	}
}

func TestFailureInjectionDegradesRotation(t *testing.T) {
	// Killing a growing fraction of varactor banks must monotonically
	// (approximately) pull the aggregate rotation toward the dead-cell
	// response, and the panel must remain passive.
	d := OptimizedFR4Design(units.DefaultCarrierHz)
	f0 := units.DefaultCarrierHz
	ideal := MustNew(d)
	ideal.SetBias(2, 15)
	fullRot := ideal.RotationDegrees(f0)

	prevLoss := -1.0
	for _, rate := range []float64{0.05, 0.25, 0.6} {
		spec := LatticeSpec{FailureRate: rate}
		lat := MustNewLattice(d, spec, 11)
		lat.SetBias(2, 15)
		rot := lat.RotationDegrees(f0)
		loss := fullRot - rot
		if loss < prevLoss-3 { // allow small non-monotonic wiggle from draws
			t.Errorf("rotation loss shrank with more failures: %v after %v (rate %v)", loss, prevLoss, rate)
		}
		prevLoss = loss
		if lat.Efficiency(f0) > 1 {
			t.Errorf("failed lattice became active at rate %v", rate)
		}
		if rate >= 0.25 && lat.FailedUnits() == 0 {
			t.Errorf("no failures drawn at rate %v", rate)
		}
	}
}

func TestYieldDeterministicPerSeed(t *testing.T) {
	d := OptimizedFR4Design(units.DefaultCarrierHz)
	a := MustNewLattice(d, DefaultLatticeSpec(), 3)
	b := MustNewLattice(d, DefaultLatticeSpec(), 3)
	c := MustNewLattice(d, DefaultLatticeSpec(), 4)
	f0 := units.DefaultCarrierHz
	a.SetBias(5, 20)
	b.SetBias(5, 20)
	c.SetBias(5, 20)
	if a.RotationDegrees(f0) != b.RotationDegrees(f0) {
		t.Error("same seed should reproduce the same panel")
	}
	if a.RotationDegrees(f0) == c.RotationDegrees(f0) {
		t.Error("different seeds should differ")
	}
}

func TestLatticePassivity(t *testing.T) {
	lat := MustNewLattice(OptimizedFR4Design(units.DefaultCarrierHz), DefaultLatticeSpec(), 5)
	for _, bias := range [][2]float64{{0, 0}, {2, 15}, {30, 30}} {
		lat.SetBias(bias[0], bias[1])
		if eff := lat.Efficiency(units.DefaultCarrierHz); eff > 1+1e-9 {
			t.Errorf("lattice active at bias %v: %v", bias, eff)
		}
	}
}
