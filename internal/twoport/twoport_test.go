package twoport

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/llama-surface/llama/internal/units"
)

func TestIdentityThrough(t *testing.T) {
	s := Identity().ToS(50)
	if cmplx.Abs(s.S11) > 1e-12 || cmplx.Abs(s.S22) > 1e-12 {
		t.Errorf("through has reflection: %v", s)
	}
	if cmplx.Abs(s.S21-1) > 1e-12 || cmplx.Abs(s.S12-1) > 1e-12 {
		t.Errorf("through does not transmit: %v", s)
	}
	if got := s.TransmissionMagDB(); math.Abs(got) > 1e-9 {
		t.Errorf("through |S21| = %v dB, want 0", got)
	}
}

func TestMatchedSeriesResistor(t *testing.T) {
	// A series 100 Ω resistor in a 50 Ω system: classic textbook values.
	s := SeriesImpedance(100).ToS(50)
	// S11 = Z/(Z+2Z0) = 100/200 = 0.5
	if math.Abs(cmplx.Abs(s.S11)-0.5) > 1e-12 {
		t.Errorf("S11 = %v, want 0.5", cmplx.Abs(s.S11))
	}
	// S21 = 2Z0/(Z+2Z0) = 0.5
	if math.Abs(cmplx.Abs(s.S21)-0.5) > 1e-12 {
		t.Errorf("S21 = %v, want 0.5", cmplx.Abs(s.S21))
	}
	if !s.IsPassive(1e-12) {
		t.Error("series resistor must be passive")
	}
}

func TestShuntResistor(t *testing.T) {
	// Shunt 25 Ω in 50 Ω system: S11 = −Z0/(Z0+2Z) = −50/100 = −0.5.
	s := ShuntImpedance(25).ToS(50)
	if math.Abs(real(s.S11)+0.5) > 1e-12 || math.Abs(imag(s.S11)) > 1e-12 {
		t.Errorf("S11 = %v, want -0.5", s.S11)
	}
	if math.Abs(cmplx.Abs(s.S21)-0.5) > 1e-12 {
		t.Errorf("S21 = %v, want 0.5", cmplx.Abs(s.S21))
	}
}

func TestShuntShortPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("shunt short should panic")
		}
	}()
	ShuntImpedance(0)
}

func TestQuarterWaveLine(t *testing.T) {
	// A λ/4 lossless line inverts impedance: Zin = Zc²/ZL.
	f := 2.44e9
	lambda := units.Wavelength(f)
	beta := 2 * math.Pi / lambda
	line := LosslessLine(50, beta, lambda/4)
	zin := line.InputImpedance(100)
	want := 50.0 * 50.0 / 100.0
	if cmplx.Abs(zin-complex(want, 0)) > 1e-6 {
		t.Errorf("Zin = %v, want %v", zin, want)
	}
	// λ/2 line reproduces the load.
	line2 := LosslessLine(50, beta, lambda/2)
	zin2 := line2.InputImpedance(100)
	if cmplx.Abs(zin2-100) > 1e-6 {
		t.Errorf("λ/2 Zin = %v, want 100", zin2)
	}
}

func TestLosslessLineIsLossless(t *testing.T) {
	f := 2.44e9
	beta := 2 * math.Pi / units.Wavelength(f)
	for _, frac := range []float64{0.1, 0.25, 0.37, 0.5} {
		line := LosslessLine(75, beta, frac*units.Wavelength(f))
		s := line.ToS(75) // matched reference: no reflection
		if cmplx.Abs(s.S11) > 1e-9 {
			t.Errorf("matched lossless line reflects: %v", s)
		}
		if math.Abs(cmplx.Abs(s.S21)-1) > 1e-9 {
			t.Errorf("matched lossless line attenuates: |S21|=%v", cmplx.Abs(s.S21))
		}
		// Phase delay should be −βl.
		wantPhase := units.NormalizeAngle(-beta * frac * units.Wavelength(f))
		if math.Abs(units.NormalizeAngle(s.TransmissionPhase()-wantPhase)) > 1e-9 {
			t.Errorf("phase = %v, want %v", s.TransmissionPhase(), wantPhase)
		}
	}
}

func TestLossyLineAttenuates(t *testing.T) {
	f := 2.44e9
	lambda := units.Wavelength(f)
	beta := 2 * math.Pi / lambda
	alpha := 20.0 // nepers/m — strongly lossy for test visibility
	line := TransmissionLine(50, complex(alpha, beta), lambda/4)
	s := line.ToS(50)
	wantDB := -20 * math.Log10(math.E) * alpha * lambda / 4
	if got := s.TransmissionMagDB(); math.Abs(got-wantDB) > 0.01 {
		t.Errorf("lossy |S21| = %v dB, want %v dB", got, wantDB)
	}
	if !s.IsPassive(1e-9) {
		t.Error("lossy line must be passive")
	}
}

func TestSToABCDRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	f := 2.44e9
	beta := 2 * math.Pi / units.Wavelength(f)
	for i := 0; i < 100; i++ {
		// Random passive cascades.
		n := Cascade(
			SeriesImpedance(complex(r.Float64()*100, r.Float64()*200-100)),
			LosslessLine(complex(30+r.Float64()*100, 0), beta, r.Float64()*0.1),
			ShuntAdmittance(complex(r.Float64()*0.02, r.Float64()*0.04-0.02)),
		)
		s := n.ToS(50)
		back := FromS(s)
		if !back.M.ApproxEqual(n.M, 1e-6*(1+n.M.MaxAbs())) {
			t.Fatalf("S↔ABCD round trip failed at iter %d:\n%v\n%v", i, n.M, back.M)
		}
	}
}

func TestCascadeAgainstManualProduct(t *testing.T) {
	a := SeriesImpedance(10 + 5i)
	b := ShuntAdmittance(0.01 - 0.02i)
	got := Cascade(a, b).M
	want := a.M.Mul(b.M)
	if !got.ApproxEqual(want, 1e-12) {
		t.Error("cascade order mismatch")
	}
}

func TestReciprocity(t *testing.T) {
	f := 2.44e9
	beta := 2 * math.Pi / units.Wavelength(f)
	n := Cascade(
		SeriesImpedance(20+30i),
		LosslessLine(60, beta, 0.01),
		ShuntAdmittance(0.005-0.01i),
		TransmissionLine(40, complex(3, beta), 0.004),
	)
	if !n.IsReciprocal(1e-9) {
		t.Errorf("passive cascade should be reciprocal: det=%v", n.M.Det())
	}
	s := n.ToS(50)
	if cmplx.Abs(s.S12-s.S21) > 1e-9 {
		t.Errorf("reciprocal network must have S12 == S21: %v vs %v", s.S12, s.S21)
	}
}

func TestPassivityProperty(t *testing.T) {
	// Any cascade of passive elements must be passive.
	f := func(rs, xs, gs, bs uint8) bool {
		series := complex(float64(rs), float64(xs)-128)
		shunt := complex(float64(gs)*1e-4, (float64(bs)-128)*1e-4)
		n := Cascade(SeriesImpedance(series), ShuntAdmittance(shunt))
		s := n.ToS(50)
		return s.IsPassive(1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestTransformer(t *testing.T) {
	tr := Transformer(2)
	zin := tr.InputImpedance(50)
	if cmplx.Abs(zin-200) > 1e-9 {
		t.Errorf("2:1 transformer Zin = %v, want 200", zin)
	}
}

func TestTransformerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero turns ratio should panic")
		}
	}()
	Transformer(0)
}

func TestPhaseShifterBandwidthEq12(t *testing.T) {
	// Eq. 12: bandwidth grows with line length (λ/m, so smaller m =
	// longer line = wider band). This is why the paper stacks two
	// phase-shifter layers: doubling the effective length recovers the
	// bandwidth a single thin FR4 layer lacks.
	f0 := 2.45e9
	bw4 := PhaseShifterBandwidth(f0, 4, 0.2, 50, 120)
	bw8 := PhaseShifterBandwidth(f0, 8, 0.2, 50, 120)
	if !(bw4 > bw8) {
		t.Errorf("longer line should be wider band: m=4 → %v, m=8 → %v", bw4, bw8)
	}
	// A severely mismatched short line has no usable passband at all.
	if got := PhaseShifterBandwidth(f0, 16, 0.05, 50, 800); got != 0 {
		t.Errorf("hopeless case bandwidth = %v, want 0", got)
	}
	// Bandwidth also grows with the tolerable reflection.
	loose := PhaseShifterBandwidth(f0, 4, 0.3, 50, 120)
	tight := PhaseShifterBandwidth(f0, 4, 0.1, 50, 120)
	if !(loose > tight) {
		t.Errorf("looser Γ must give wider band: %v vs %v", loose, tight)
	}
	// Perfect match: unbounded.
	if !math.IsInf(PhaseShifterBandwidth(f0, 4, 0.2, 50, 50), 1) {
		t.Error("matched load should give infinite bandwidth")
	}
	// Small mismatch with generous Γ: arg ≥ 1 → +Inf.
	if !math.IsInf(PhaseShifterBandwidth(f0, 4, 0.5, 50, 55), 1) {
		t.Error("slight mismatch with loose Γ should be unbounded")
	}
}

func TestPhaseShifterBandwidthPaperClaim(t *testing.T) {
	// The paper's two-layer design achieves ≥150 MHz with efficiency
	// better than −5 dB, wider than the 100 MHz ISM band. With a
	// moderate mismatch and Γmax=0.3 the model comfortably exceeds
	// 150 MHz at 2.45 GHz for a two-layer (effectively λ/4) section.
	bw := PhaseShifterBandwidth(2.45e9, 4, 0.3, units.Z0FreeSpace, 800)
	if bw < 150e6 {
		t.Errorf("two-layer bandwidth = %v MHz, want ≥ 150 MHz", bw/1e6)
	}
}

func TestPhaseShifterBandwidthPanics(t *testing.T) {
	for _, c := range []struct{ g, z0, zl float64 }{
		{0, 50, 100}, {1, 50, 100}, {0.2, 0, 100}, {0.2, 50, -1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("want panic for g=%v z0=%v zl=%v", c.g, c.z0, c.zl)
				}
			}()
			PhaseShifterBandwidth(2.45e9, 4, c.g, c.z0, c.zl)
		}()
	}
}

func TestQuarterWaveTransformer(t *testing.T) {
	if got := QuarterWaveTransformer(50, 200); math.Abs(got-100) > 1e-12 {
		t.Errorf("QWT(50,200) = %v, want 100", got)
	}
}

func TestReflectionCoefficientAndMismatchLoss(t *testing.T) {
	g := ReflectionCoefficient(100, 50)
	if cmplx.Abs(g-complex(1.0/3, 0)) > 1e-12 {
		t.Errorf("Γ = %v, want 1/3", g)
	}
	// |Γ|=1/3 → mismatch loss = −10log10(1−1/9) ≈ 0.512 dB.
	if got := MismatchLossDB(1.0 / 3); math.Abs(got-0.5115) > 1e-3 {
		t.Errorf("mismatch loss = %v dB", got)
	}
	if !math.IsInf(MismatchLossDB(1), 1) {
		t.Error("total reflection should be infinite loss")
	}
}

func TestLumpedElements(t *testing.T) {
	w := units.AngularFrequency(2.44e9)
	// 1 pF at 2.44 GHz: |Z| = 1/(ωC) ≈ 65.2 Ω, purely capacitive.
	z := CapacitorImpedance(1e-12, w)
	if real(z) != 0 || imag(z) >= 0 {
		t.Errorf("capacitor impedance = %v", z)
	}
	if math.Abs(cmplx.Abs(z)-65.2) > 0.5 {
		t.Errorf("|Zc| = %v, want ≈65.2", cmplx.Abs(z))
	}
	// 1 nH: |Z| = ωL ≈ 15.3 Ω inductive.
	zl := InductorImpedance(1e-9, w)
	if imag(zl) <= 0 {
		t.Errorf("inductor impedance = %v", zl)
	}
	if math.Abs(cmplx.Abs(zl)-15.33) > 0.1 {
		t.Errorf("|Zl| = %v, want ≈15.3", cmplx.Abs(zl))
	}
}

func TestResonance(t *testing.T) {
	// 2.9 nH with 1.5 pF resonates near 2.41 GHz.
	f0 := ResonantFrequency(2.9e-9, 1.5e-12)
	if math.Abs(f0-2.413e9) > 0.01e9 {
		t.Errorf("f0 = %v GHz", f0/1e9)
	}
	// Tank impedance is huge at resonance, small far away.
	w0 := units.AngularFrequency(f0)
	zAt := cmplx.Abs(ParallelLC(2.9e-9, 1.5e-12, w0*1.0000001))
	zOff := cmplx.Abs(ParallelLC(2.9e-9, 1.5e-12, w0*2))
	if zAt < 1e4 {
		t.Errorf("tank at resonance |Z| = %v, want very large", zAt)
	}
	if zOff > 100 {
		t.Errorf("tank off resonance |Z| = %v, want small", zOff)
	}
}

func TestSeriesRLC(t *testing.T) {
	w := units.AngularFrequency(2.44e9)
	z := SeriesRLC(1.5, 0.7e-9, 1.2e-12, w)
	if real(z) != 1.5 {
		t.Errorf("series R = %v", real(z))
	}
	// Zero C means no capacitive term.
	z2 := SeriesRLC(1, 1e-9, 0, w)
	if imag(z2) != w*1e-9 {
		t.Errorf("series L-only reactance = %v, want %v", imag(z2), w*1e-9)
	}
}

func TestVSWR(t *testing.T) {
	s := SParams{S11: 0.5, Z0: 50}
	if got := s.VSWR(); math.Abs(got-3) > 1e-12 {
		t.Errorf("VSWR(|Γ|=0.5) = %v, want 3", got)
	}
	s = SParams{S11: 1, Z0: 50}
	if !math.IsInf(s.VSWR(), 1) {
		t.Error("VSWR(|Γ|=1) should be Inf")
	}
}

func TestInputImpedanceOpenShort(t *testing.T) {
	f := 2.44e9
	lambda := units.Wavelength(f)
	beta := 2 * math.Pi / lambda
	// λ/8 shorted stub: Zin = jZc·tan(βl) = jZc.
	line := LosslessLine(50, beta, lambda/8)
	zin := line.InputImpedance(1e-9) // ~short
	if math.Abs(imag(zin)-50) > 0.01 || math.Abs(real(zin)) > 0.01 {
		t.Errorf("λ/8 shorted stub Zin = %v, want j50", zin)
	}
}

func TestStringOutput(t *testing.T) {
	s := Identity().ToS(50)
	if s.String() == "" {
		t.Error("empty S-params string")
	}
}

func TestCascadeNMatchesCascade(t *testing.T) {
	layer := Cascade(
		ShuntAdmittance(complex(0, 0.003)),
		TransmissionLine(complex(340, 0), complex(1.2, 55), 0.023),
		ShuntAdmittance(complex(0, 0.003)),
	)
	// n = 0 and n = 1 are the trivial identities.
	if got := CascadeN(layer, 0); got.M != Identity().M {
		t.Errorf("CascadeN(s, 0) = %v, want identity", got.M)
	}
	if got := CascadeN(layer, 1); got.M != layer.M {
		t.Errorf("CascadeN(s, 1) altered the section")
	}
	// n = 2 is a single square — bit-identical to the explicit product.
	if got, want := CascadeN(layer, 2), layer.M.Mul(layer.M); got.M != want {
		t.Errorf("CascadeN(s, 2) = %v, want %v", got.M, want)
	}
	// Larger n re-associates the product (that's the point), so compare
	// against the sequential chain within float tolerance.
	for _, n := range []int{3, 4, 5, 8, 13} {
		ns := make([]ABCD, n)
		for i := range ns {
			ns[i] = layer
		}
		want := Cascade(ns...)
		got := CascadeN(layer, n)
		scale := want.M.MaxAbs()
		if d := got.M.Add(want.M.Scale(-1)).MaxAbs(); d > 1e-9*scale {
			t.Errorf("CascadeN(s, %d) differs from chain product by %g (scale %g)", n, d, scale)
		}
		if !got.IsReciprocal(1e-6 * scale * scale) {
			t.Errorf("CascadeN(s, %d) broke reciprocity", n)
		}
	}
}

func TestCascadeNPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative cascade count should panic")
		}
	}()
	CascadeN(Identity(), -1)
}
