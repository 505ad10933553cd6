package jones

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/llama-surface/llama/internal/mat2"
	"github.com/llama-surface/llama/internal/units"
)

func TestLinearStates(t *testing.T) {
	h := Horizontal()
	v := Vertical()
	if math.Abs(h.Norm()-1) > 1e-12 || math.Abs(v.Norm()-1) > 1e-12 {
		t.Fatal("basis states not normalized")
	}
	// Orthogonal linear states couple zero power — the mismatch scenario.
	if p := PLF(h, v); p > 1e-20 {
		t.Errorf("PLF(H,V) = %v, want 0", p)
	}
	if p := PLF(h, h); math.Abs(p-1) > 1e-12 {
		t.Errorf("PLF(H,H) = %v, want 1", p)
	}
}

func TestPLFMalusLaw(t *testing.T) {
	// PLF between linear states at relative angle θ is cos²θ (Malus).
	for _, deg := range []float64{0, 15, 30, 45, 60, 75, 90} {
		th := units.Radians(deg)
		got := PLF(LinearAt(0), LinearAt(th))
		want := math.Cos(th) * math.Cos(th)
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("PLF at %v° = %v, want %v", deg, got, want)
		}
	}
}

func TestPLFCircularToLinear(t *testing.T) {
	// Circular↔linear coupling loses exactly 3 dB (paper §2).
	for _, lin := range []Vector{Horizontal(), Vertical(), LinearAt(0.3)} {
		got := PLFdB(CircularRight(), lin)
		if math.Abs(got+3.0103) > 1e-3 {
			t.Errorf("circular→linear = %v dB, want −3.01", got)
		}
	}
}

func TestPLFdBOrthogonal(t *testing.T) {
	// cos(π/2) is ~6e-17 in floats, so the PLF is a denormal-tiny number
	// rather than exactly zero; anything below -200 dB is "orthogonal".
	if got := PLFdB(Horizontal(), Vertical()); got > -200 {
		t.Errorf("orthogonal PLF = %v dB, want < -200", got)
	}
	if PLF(Vector{}, Horizontal()) != 0 {
		t.Error("zero state PLF should be 0")
	}
}

func TestCircularStates(t *testing.T) {
	r := CircularRight()
	l := CircularLeft()
	if p := PLF(r, l); p > 1e-20 {
		t.Errorf("PLF(RHC,LHC) = %v, want 0", p)
	}
	if ar := AxialRatio(r); math.Abs(ar-1) > 1e-9 {
		t.Errorf("axial ratio of circular = %v, want 1", ar)
	}
	if dl := DegreeOfLinearity(r); dl > 1e-12 {
		t.Errorf("degree of linearity of circular = %v, want 0", dl)
	}
}

func TestEllipticalMatchesEq1(t *testing.T) {
	// Eq. (1): [a, b·e^{jπ/2}].
	v := Elliptical(3, 4, math.Pi/2)
	if real(v.X) != 3 || imag(v.X) != 0 {
		t.Errorf("X component = %v", v.X)
	}
	if math.Abs(real(v.Y)) > 1e-12 || math.Abs(imag(v.Y)-4) > 1e-12 {
		t.Errorf("Y component = %v, want 4j", v.Y)
	}
}

func TestQuarterWavePlateAction(t *testing.T) {
	// A QWP at 45° turns horizontal linear into circular.
	q := QWPAt(0, math.Pi/4)
	out := q.MulVec(Horizontal())
	if dl := DegreeOfLinearity(out); dl > 1e-9 {
		t.Errorf("QWP@45(H) linearity = %v, want 0 (circular)", dl)
	}
	// Power is conserved (lossless plate).
	if math.Abs(out.NormSq()-1) > 1e-12 {
		t.Errorf("QWP not unitary: out power %v", out.NormSq())
	}
	// QWP aligned with the axes leaves H and V unchanged in power.
	qa := QuarterWavePlate(0)
	if p := TransmittedPower(qa, Horizontal()); math.Abs(p-1) > 1e-12 {
		t.Errorf("aligned QWP transmits %v of H", p)
	}
}

func TestHalfWavePlateFlips(t *testing.T) {
	// HWP at angle θ maps linear at φ to linear at 2θ−φ.
	h := Rotated(HalfWavePlate(0), units.Radians(30))
	out := h.MulVec(LinearAt(0))
	got := OrientationAngle(out)
	if math.Abs(got-units.Radians(60)) > 1e-9 {
		t.Errorf("HWP@30°(H) orientation = %v°, want 60°", units.Degrees(got))
	}
}

func TestPolarizationRotatorEq8(t *testing.T) {
	// The composed rotator must equal a pure rotation by δ/2 (Eq. 8),
	// up to common phase, for any δ.
	for _, deltaDeg := range []float64{0, 10, 30, 45, 60, 90, 120, 179} {
		delta := units.Radians(deltaDeg)
		p := PolarizationRotator(0.2, 0.7, delta)
		got := RotationAngle(p)
		want := delta / 2
		// RotationAngle folds to (−π/2, π/2]; δ/2 ≤ 89.5° here so no fold.
		if math.Abs(math.Abs(got)-want) > 1e-9 {
			t.Errorf("δ=%v°: rotator angle = %v°, want ±%v°",
				deltaDeg, units.Degrees(got), units.Degrees(want))
		}
		// And it must be unitary (lossless ideal elements).
		if !isUnitary(p, 1e-9) {
			t.Errorf("δ=%v°: rotator is not unitary", deltaDeg)
		}
	}
}

func TestPolarizationRotatorCorrectsMismatch(t *testing.T) {
	// End-to-end §2 story: V-polarized Tx, H-polarized Rx — complete
	// mismatch. A rotator with δ = π recovers full coupling.
	tx := Vertical()
	rx := Horizontal()
	if PLF(tx, rx) > 1e-20 {
		// expected: total mismatch
	} else {
		p := PolarizationRotator(0, 0, math.Pi) // rotates by 90°
		out := p.MulVec(tx)
		if got := PLF(out, rx); math.Abs(got-1) > 1e-9 {
			t.Errorf("rotated PLF = %v, want 1", got)
		}
	}
}

func TestRotationAngleOfPureRotations(t *testing.T) {
	for _, deg := range []float64{-89, -45, -10, 0, 10, 45, 89} {
		th := units.Radians(deg)
		got := RotationAngle(Rotator(th))
		if math.Abs(got-th) > 1e-12 {
			t.Errorf("RotationAngle(R(%v°)) = %v°", deg, units.Degrees(got))
		}
		// With an arbitrary common phase attached.
		m := Rotator(th).Scale(complex(math.Cos(1.1), math.Sin(1.1)))
		got = RotationAngle(m)
		if math.Abs(got-th) > 1e-9 {
			t.Errorf("phase-scaled RotationAngle = %v°, want %v°", units.Degrees(got), deg)
		}
	}
}

func TestRotationAngleFoldsModuloPi(t *testing.T) {
	// Rotations by θ and θ−π give the same folded angle.
	th := units.Radians(120)
	got := RotationAngle(Rotator(th))
	want := units.Radians(120 - 180)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("fold: got %v°, want %v°", units.Degrees(got), units.Degrees(want))
	}
}

func TestLinearPolarizer(t *testing.T) {
	p := LinearPolarizer(0)
	// Passes H fully, blocks V.
	if got := TransmittedPower(p, Horizontal()); math.Abs(got-1) > 1e-12 {
		t.Errorf("polarizer passes %v of aligned", got)
	}
	if got := TransmittedPower(p, Vertical()); got > 1e-20 {
		t.Errorf("polarizer passes %v of crossed", got)
	}
	// At 45° it passes half.
	if got := TransmittedPower(LinearPolarizer(math.Pi/4), Horizontal()); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("45° polarizer passes %v, want 0.5", got)
	}
}

func TestLossyBirefringent(t *testing.T) {
	b := LossyBirefringent(0, math.Pi/3, 0.8, 0.6)
	if isUnitary(b, 1e-6) {
		t.Error("lossy BFS should not be unitary")
	}
	if got := TransmittedPower(b, Horizontal()); math.Abs(got-0.64) > 1e-12 {
		t.Errorf("lossy BFS X power = %v, want 0.64", got)
	}
	if got := TransmittedPower(b, Vertical()); math.Abs(got-0.36) > 1e-12 {
		t.Errorf("lossy BFS Y power = %v, want 0.36", got)
	}
}

func TestStokesKnownStates(t *testing.T) {
	s0, s1, s2, s3 := Stokes(Horizontal())
	if s0 != 1 || s1 != 1 || s2 != 0 || s3 != 0 {
		t.Errorf("Stokes(H) = %v %v %v %v", s0, s1, s2, s3)
	}
	s0, s1, s2, s3 = Stokes(LinearAt(math.Pi / 4))
	if math.Abs(s0-1) > 1e-12 || math.Abs(s1) > 1e-12 || math.Abs(s2-1) > 1e-12 || math.Abs(s3) > 1e-12 {
		t.Errorf("Stokes(45°) = %v %v %v %v", s0, s1, s2, s3)
	}
	_, _, _, s3 = Stokes(CircularLeft())
	if math.Abs(s3-1) > 1e-12 {
		t.Errorf("Stokes(LHC) S3 = %v, want 1", s3)
	}
}

func TestStokesIdentity(t *testing.T) {
	// S0² = S1² + S2² + S3² for fully polarized states.
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		v := Vector{
			X: complex(r.Float64()*2-1, r.Float64()*2-1),
			Y: complex(r.Float64()*2-1, r.Float64()*2-1),
		}
		s0, s1, s2, s3 := Stokes(v)
		lhs := s0 * s0
		rhs := s1*s1 + s2*s2 + s3*s3
		if math.Abs(lhs-rhs) > 1e-9*(1+lhs) {
			t.Fatalf("Stokes identity failed: %v vs %v", lhs, rhs)
		}
	}
}

func TestOrientationAngle(t *testing.T) {
	for _, deg := range []float64{-80, -45, 0, 30, 45, 80} {
		v := LinearAt(units.Radians(deg))
		got := units.Degrees(OrientationAngle(v))
		if math.Abs(got-deg) > 1e-9 {
			t.Errorf("orientation of linear@%v° = %v°", deg, got)
		}
	}
}

func TestRotatorMovesOrientation(t *testing.T) {
	// Property: a rotator by θ moves a linear state's orientation by θ.
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		start := math.Mod(a, math.Pi/3) // stay away from fold boundaries
		rot := math.Mod(b, math.Pi/8)
		v := LinearAt(start)
		out := Rotator(rot).MulVec(v)
		got := OrientationAngle(out)
		want := units.NormalizeAngle(start + rot)
		diff := math.Abs(units.NormalizeAngle(got - want))
		// Orientation is mod π.
		return diff < 1e-6 || math.Abs(diff-math.Pi) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCascadeOrder(t *testing.T) {
	// A polarizer at 0° followed by a rotator: order matters.
	pol := LinearPolarizer(0)
	rot := Rotator(math.Pi / 2)
	// V → polarizer (blocked) → rotator: zero.
	m1 := Cascade(pol, rot)
	if p := TransmittedPower(m1, Vertical()); p > 1e-20 {
		t.Errorf("pol-then-rot passes %v of V", p)
	}
	// V → rotator (→H) → polarizer: passes fully.
	m2 := Cascade(rot, pol)
	if p := TransmittedPower(m2, Vertical()); math.Abs(p-1) > 1e-9 {
		t.Errorf("rot-then-pol passes %v of V, want 1", p)
	}
}

func TestCascadeEmpty(t *testing.T) {
	if !Cascade().ApproxEqual(mat2.Identity(), 0) {
		t.Error("empty cascade should be identity")
	}
}

func TestAxialRatioLinear(t *testing.T) {
	if !math.IsInf(AxialRatio(Horizontal()), 1) {
		t.Error("axial ratio of linear should be +Inf")
	}
	if AxialRatio(Vector{}) != math.Inf(1) {
		t.Error("axial ratio of zero vector should be +Inf (χ=0 convention)")
	}
}

func TestTransmittedPowerZeroInput(t *testing.T) {
	if TransmittedPower(Rotator(1), Vector{}) != 0 {
		t.Error("zero input should transmit zero power")
	}
}

func TestRotatorDeltaHalfProperty(t *testing.T) {
	// Property test over the full usable δ range: P(δ) applied to any
	// linear state rotates its orientation by exactly δ/2.
	f := func(deltaRaw, startRaw float64) bool {
		if math.IsNaN(deltaRaw) || math.IsNaN(startRaw) ||
			math.IsInf(deltaRaw, 0) || math.IsInf(startRaw, 0) {
			return true
		}
		delta := math.Abs(math.Mod(deltaRaw, math.Pi*0.9)) // δ ∈ [0, 0.9π)
		start := math.Mod(startRaw, math.Pi/6)
		p := PolarizationRotator(0, 0, delta)
		out := p.MulVec(LinearAt(start))
		got := OrientationAngle(out)
		want := start + delta/2
		d := math.Abs(units.NormalizeAngle(got - want))
		if d > math.Pi/2 {
			d = math.Abs(d - math.Pi) // orientation is mod π
		}
		// Sign of rotation depends on QWP handedness convention; accept
		// either direction but require the magnitude to be δ/2.
		want2 := start - delta/2
		d2 := math.Abs(units.NormalizeAngle(got - want2))
		if d2 > math.Pi/2 {
			d2 = math.Abs(d2 - math.Pi)
		}
		return d < 1e-6 || d2 < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
