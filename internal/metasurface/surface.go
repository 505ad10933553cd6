package metasurface

import (
	"fmt"
	"math"
	"math/cmplx"

	"github.com/llama-surface/llama/internal/jones"
	"github.com/llama-surface/llama/internal/mat2"
	"github.com/llama-surface/llama/internal/twoport"
	"github.com/llama-surface/llama/internal/units"
)

// Surface is a buildable, biasable instance of a Design. It is immutable
// except for the two bias voltages, making it safe to share read-only
// across goroutines when the bias is externally synchronized (the
// simulator's power-supply model owns bias updates). Its response cache
// is internally synchronized, so concurrent read-only queries (Jones*,
// Efficiency, FrontReflection, …) are race-free.
type Surface struct {
	design Design

	// biasX, biasY are the current reverse-bias voltages in volts.
	biasX, biasY float64

	// table is the design's shared response table, resolved once from
	// the fingerprint-keyed registry (table.go): every Surface of the
	// same design shares one table, so entries computed by one are hits
	// for all. Results are bit-identical with caching disabled
	// (SetCaching).
	table *responseTable

	// shard is this surface's slot in the sharded hit/miss counter
	// (cache.go), dealt round-robin at construction so concurrently hot
	// surfaces never bounce one counter cache line between cores.
	shard uint32
}

// New builds a Surface from a validated design.
func New(d Design) (*Surface, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return &Surface{
		design: d,
		biasX:  d.MinBiasV,
		biasY:  d.MinBiasV,
		table:  tableFor(DesignFingerprint(d)),
		shard:  nextStatShard(),
	}, nil
}

// MustNew builds a Surface and panics on an invalid design. Intended for
// the prefab designs in examples and benchmarks.
func MustNew(d Design) *Surface {
	s, err := New(d)
	if err != nil {
		panic(err)
	}
	return s
}

// SetBias sets the X- and Y-axis bias voltages, clamped to the design's
// control range (the physical supply cannot exceed its programmed limits).
func (s *Surface) SetBias(vx, vy float64) {
	s.biasX = units.Clamp(vx, s.design.MinBiasV, s.design.MaxBiasV)
	s.biasY = units.Clamp(vy, s.design.MinBiasV, s.design.MaxBiasV)
}

// Bias returns the current bias voltages (vx, vy).
func (s *Surface) Bias() (vx, vy float64) { return s.biasX, s.biasY }

// String implements fmt.Stringer.
func (s *Surface) String() string {
	return fmt.Sprintf("%s [%d units, bias %.1f/%.1f V]",
		s.design.Name, s.design.Units(), s.biasX, s.biasY)
}

// axisResponse is the complete per-axis physics evaluation: the front-
// referenced S-parameters of the BFS stack (S11 and S21 from a single
// ToS) and the reflection coefficient with the ground-plane short behind
// it (reflective mode). One evaluation serves every Surface query.
type axisResponse struct {
	s          twoport.SParams
	shortGamma complex128
}

// qwpResponse is the bias-independent per-frequency QWP evaluation: the
// per-axis S-parameters of one board and the ±45°-rotated Jones matrices
// built from them (Eq. 8's Q₊₄₅ and Q₋₄₅).
type qwpResponse struct {
	fastS, slowS twoport.SParams
	plus, minus  mat2.Mat
}

// axisEval performs the per-axis evaluation from scratch: build the BFS
// stack once, convert to S-parameters once, and derive the short-circuit
// reflection from the same network. This is the single source of truth
// the cache memoizes — the cached and uncached paths both run exactly
// this function, which is what makes the cache transparent.
func (d Design) axisEval(axis Axis, f, v float64) axisResponse {
	net := d.bfsAxisNetwork(f, axis, v)
	// Short-circuit load for the reflective deployment: Γ_in with Zin of
	// the short-terminated network. Use a tiny but nonzero load to stay
	// off the ABCD singularity.
	zin := net.InputImpedance(complex(1e-6, 0))
	return axisResponse{
		s:          net.ToS(units.Z0FreeSpace),
		shortGamma: twoport.ReflectionCoefficient(zin, complex(units.Z0FreeSpace, 0)),
	}
}

// qwpEval performs the per-frequency QWP evaluation from scratch: one
// fast-axis and one slow-axis line build, then both rotated Jones
// matrices from the shared diagonal. Bias never enters, so the result is
// reusable across an entire bias-plane scan.
func (d Design) qwpEval(f float64) qwpResponse {
	z0 := units.Z0FreeSpace
	fastS := d.qwpAxisLine(f, false).ToS(z0)
	slowS := d.qwpAxisLine(f, true).ToS(z0)
	diag := mat2.Diag(fastS.S21, slowS.S21)
	return qwpResponse{
		fastS: fastS,
		slowS: slowS,
		plus:  jones.Rotated(diag, math.Pi/4),
		minus: jones.Rotated(diag, -math.Pi/4),
	}
}

// axisAt returns the per-axis response, through the shared table when
// caching is enabled.
func (s *Surface) axisAt(axis Axis, f, v float64) axisResponse {
	if s.table == nil || !CachingEnabled() {
		return s.design.axisEval(axis, f, v)
	}
	return s.table.axisAt(s.design, axis, f, v, s.shard)
}

// qwpAt returns the QWP response, through the shared table when caching
// is enabled. The QWP is bias-independent: one evaluation per
// frequency.
func (s *Surface) qwpAt(f float64) qwpResponse {
	if s.table == nil || !CachingEnabled() {
		return s.design.qwpEval(f)
	}
	return s.table.qwpAt(s.design, f, s.shard)
}

// qwpAxisLine returns the ABCD network of one QWP board along one
// principal axis: a slow-wave pattern line of electrical length QWPPath.
// The fast axis is phase-advanced and the slow axis retarded so that the
// differential phase is 90° at the design center; phase scales linearly
// with frequency (transmission-line dispersion).
func (d Design) qwpAxisLine(f float64, slow bool) twoport.ABCD {
	n := d.PatternIndex
	path := d.QWPPath
	k0 := units.WaveNumber(d.CenterHz)
	// Differential index between slow and fast axes such that
	// (nSlow−nFast)·k0·path = π/2 along the pattern trace.
	dn := (math.Pi / 2) / (k0 * path)
	nAxis := n - dn/2
	if slow {
		nAxis = n + dn/2
	}
	if nAxis < 1 {
		nAxis = 1 // synthetic lines cannot be faster than light
	}
	beta := units.WaveNumber(f) * nAxis
	alpha := d.Substrate.DielectricAttenuation(f)*d.QWPConcentration +
		0.3 // conductor + radiation residual, nepers/m
	zc := units.Z0FreeSpace * (1 + d.QWPMismatch)
	if slow {
		zc = units.Z0FreeSpace * (1 - d.QWPMismatch)
	}
	line := twoport.TransmissionLine(complex(zc, 0), complex(alpha, beta), path)
	tank := twoport.ShuntAdmittance(d.qwpTankAdmittance(f))
	return twoport.Cascade(tank, line, tank)
}

// qwpTankAdmittance returns the shunt admittance of the resonant tank
// printed on each QWP face: zero at the design center, susceptance growing
// with fractional detuning at slope QWPSelectivity (normalized to Z0).
// This is the standard parallel-LC form B = Yt·(f/f0 − f0/f).
func (d Design) qwpTankAdmittance(f float64) complex128 {
	if d.QWPSelectivity == 0 {
		return 0
	}
	detune := f/d.CenterHz - d.CenterHz/f
	return complex(0, d.QWPSelectivity/units.Z0FreeSpace*detune)
}

// bfsTankAdmittance returns the shunt admittance of the varactor-loaded
// tank on a BFS face at frequency f and bias v. The tank's capacitive arm
// is the diode itself, so bias moves the resonance: it sits exactly at the
// design center when v = BFSResonanceBias.
func (d Design) bfsTankAdmittance(f, v float64) complex128 {
	if d.BFSSelectivity == 0 {
		return 0
	}
	w := units.AngularFrequency(f)
	w0 := units.AngularFrequency(d.CenterHz)
	cRes := d.Diode.Capacitance(d.BFSResonanceBias)
	// Scale factor κ makes B·Z0 = BFSSelectivity·(C(v)/C(res) − 1) at
	// the center frequency.
	kappa := d.BFSSelectivity / (w0 * cRes * units.Z0FreeSpace)
	ct := kappa * d.Diode.Capacitance(v)
	lt := 1 / (w0 * w0 * kappa * cRes)
	b := w*ct - 1/(w*lt)
	return complex(0, b)
}

// qwpJones returns the Jones matrix of one QWP board rotated by theta,
// computed from the per-axis circuit model.
func (d Design) qwpJones(f, theta float64) mat2.Mat {
	z0 := units.Z0FreeSpace
	fastS := d.qwpAxisLine(f, false).ToS(z0)
	slowS := d.qwpAxisLine(f, true).ToS(z0)
	diag := mat2.Diag(fastS.S21, slowS.S21)
	return jones.Rotated(diag, theta)
}

// loadedLine describes the varactor-loaded synthetic line of one BFS axis
// whose diodes sit at capacitance cv (the bias enters only through C(v)):
// characteristic impedance drops and phase constant grows with loading
// (distributed-loading relations), and the varactor ESR adds
// shunt-conductance loss.
func (d Design) loadedLine(f, cv float64) (zc complex128, gamma complex128) {
	n := d.PatternIndex
	w := units.AngularFrequency(f)
	// Unloaded per-unit-length parameters of a Z0-matched line with
	// index n: L' = Z0·n/c, C' = n/(Z0·c).
	z0 := units.Z0FreeSpace
	cPrime := n / (z0 * units.C)
	loading := cv / (d.LoadPitch * cPrime)
	root := math.Sqrt(1 + loading)
	zcr := z0 / root
	beta := (w * n / units.C) * root
	// Losses: concentrated dielectric + conductor residual + varactor
	// ESR. The ESR appears as a distributed shunt conductance
	// G = (ωCv)²·Rs per load, spaced at the pitch.
	g := (w * cv) * (w * cv) * d.Diode.Rs / d.LoadPitch
	alphaESR := g * zcr / 2
	alpha := d.Substrate.DielectricAttenuation(f)*d.BFSConcentration + 0.5 + alphaESR
	return complex(zcr, 0), complex(alpha, beta)
}

// bfsStack returns the cascaded ABCD network of all BFS layers at the
// literal bias v (no axis offset).
func (d Design) bfsStack(f, v float64) twoport.ABCD {
	return d.bfsStackAt(f, d.Diode.Capacitance(v), d.bfsTank(f, v))
}

// bfsTank returns the two-port of one BFS face tank at frequency f and
// bias v. It depends on neither LoadPitch nor BFSLayers.
func (d Design) bfsTank(f, v float64) twoport.ABCD {
	return twoport.ShuntAdmittance(d.bfsTankAdmittance(f, v))
}

// bfsStackAt is bfsStack's evaluator with the bias-only terms supplied:
// the diode capacitance cv = C(v) and the face tank at that bias. One
// layer build, then the identical layers composed as a matrix power — no
// per-call slice, ⌈log₂n⌉ multiplies. Surface queries reach it through
// bfsStack; CalibrateLoadPitch computes the bias terms once per call and
// re-evaluates only the pitch-dependent line, so both paths run the same
// arithmetic.
func (d Design) bfsStackAt(f, cv float64, tank twoport.ABCD) twoport.ABCD {
	zc, gamma := d.loadedLine(f, cv)
	line := twoport.TransmissionLine(zc, gamma, d.BFSPath)
	layer := twoport.Cascade(tank, line, tank)
	return twoport.CascadeN(layer, d.BFSLayers)
}

// bfsAxisNetwork returns the cascaded ABCD network of all BFS layers along
// one axis at the given bias voltage. The X axis sees the design's bias
// offset (fabrication/assembly error, §3.3).
func (d Design) bfsAxisNetwork(f float64, axis Axis, bias float64) twoport.ABCD {
	if axis == AxisX {
		bias -= d.BiasOffsetX
		if bias < 0 {
			bias = 0
		}
	}
	return d.bfsStack(f, bias)
}

// jonesTransmissiveFrom assembles Eq. (8)'s Q₊₄₅·B·Q₋₄₅ from resolved
// responses. The scalar and batched paths both assemble through exactly
// this function, which is what makes batched ≡ scalar bit-identity
// (determinism invariant #11) hold by construction rather than by test
// alone.
func jonesTransmissiveFrom(xr, yr axisResponse, q qwpResponse) mat2.Mat {
	bfs := mat2.Diag(xr.s.S21, yr.s.S21)
	return q.plus.Mul(bfs).Mul(q.minus)
}

// JonesTransmissive returns the Jones matrix of the whole surface in
// transmissive mode at frequency f with the current bias: Eq. (8)'s
// Q₊₄₅·B·Q₋₄₅ with every element taken from the circuit model.
func (s *Surface) JonesTransmissive(f float64) mat2.Mat {
	xr := s.axisAt(AxisX, f, s.biasX)
	yr := s.axisAt(AxisY, f, s.biasY)
	return jonesTransmissiveFrom(xr, yr, s.qwpAt(f))
}

// JonesReflective returns the Jones matrix of the surface in reflective
// mode at frequency f with the current bias.
//
// Two terms superpose in reception coordinates:
//
//   - the front-face specular reflection off the first QWP board
//     (small, bias-independent, polarization-preserving), and
//   - the stack round trip: in through Q₋₄₅, reflect off the
//     ground-plane-backed BFS with per-axis coefficients, back out
//     through the same plate (transpose by reciprocity).
//
// For ideal elements the round trip reduces to a fixed 90° polarization
// flip whose common phase carries the bias dependence — which is why the
// paper observes that "the rotation will be cancelled after the signal is
// reflected" yet still measures bias-dependent received power: the
// interference between the two terms, and the per-axis loss asymmetry,
// modulate the reflected amplitude.
func (s *Surface) JonesReflective(f float64) mat2.Mat {
	q := s.qwpAt(f)
	xr := s.axisAt(AxisX, f, s.biasX)
	yr := s.axisAt(AxisY, f, s.biasY)
	return jonesReflectiveFrom(xr, yr, q)
}

// jonesReflectiveFrom assembles the reflective-mode Jones matrix from
// resolved responses — the shared assembly of the scalar and batched
// paths (see jonesTransmissiveFrom).
func jonesReflectiveFrom(xr, yr axisResponse, q qwpResponse) mat2.Mat {
	inner := mat2.Diag(xr.shortGamma, yr.shortGamma)
	round := q.minus.Transpose().Mul(inner).Mul(q.minus)
	// Front-face specular term: reflection of the (slightly mismatched)
	// QWP sections.
	spec := mat2.Diag(q.fastS.S11, q.slowS.S11)
	// Power that reflects specularly never enters the stack: derate the
	// round trip accordingly so the two terms share the incident energy.
	gf := cmplx.Abs(q.fastS.S11)
	gs := cmplx.Abs(q.slowS.S11)
	gmax := math.Max(gf, gs)
	round = round.Scale(complex(1-gmax*gmax, 0))
	total := round.Add(spec)
	// Passivity clamp: constructive interference between the two terms
	// can nudge the composite marginally above unit gain at low-loss
	// corners of the model; a passive reflector cannot amplify, so scale
	// back to the unit sphere when that happens.
	if s := maxSingularValue(total); s > 1 {
		total = total.Scale(complex(1/s, 0))
	}
	return total
}

// maxSingularValue returns the largest singular value of m — the maximum
// field gain over all input polarizations — via the closed-form
// eigenvalues of m†m.
func maxSingularValue(m mat2.Mat) float64 {
	h := m.Adjoint().Mul(m) // Hermitian, PSD
	tr := real(h.Trace())
	det := real(h.Det())
	disc := tr*tr/4 - det
	if disc < 0 {
		disc = 0
	}
	lam := tr/2 + math.Sqrt(disc)
	if lam < 0 {
		return 0
	}
	return math.Sqrt(lam)
}

// FrontReflection returns the bias-dependent complex reflection
// coefficient of the surface's illuminated face in transmissive mode
// (axis average). The channel model uses it for the surface↔antenna
// standing-wave term that makes the optimal bias drift with link distance
// (Fig. 15).
func (s *Surface) FrontReflection(f float64) complex128 {
	sx := s.axisAt(AxisX, f, s.biasX).s.S11
	sy := s.axisAt(AxisY, f, s.biasY).s.S11
	return (sx + sy) / 2
}

// JonesEfficiency returns the Eq. (11) transmission efficiency a Jones
// matrix applies to an incident wave polarized along the given axis:
// |S_co|² + |S_cross|², i.e. ‖M·ê‖². It is the scalar Efficiency path
// factored out so batched callers (Surface.JonesBatch consumers) can
// derive bit-identical efficiencies from batch-resolved matrices.
func JonesEfficiency(m mat2.Mat, axis Axis) float64 {
	in := jones.Horizontal()
	if axis == AxisY {
		in = jones.Vertical()
	}
	return m.MulVec(in).NormSq()
}

// Efficiency returns the Eq. (11) transmission efficiency for an incident
// wave polarized along the given axis, at frequency f with the current
// bias: |S_co|² + |S_cross|², i.e. ‖M·ê‖².
func (s *Surface) Efficiency(axis Axis, f float64) float64 {
	return JonesEfficiency(s.JonesTransmissive(f), axis)
}

// EfficiencyDB returns Efficiency in dB.
func (s *Surface) EfficiencyDB(axis Axis, f float64) float64 {
	return units.LinearToDB(s.Efficiency(axis, f))
}

// RotationAngle returns the polarization rotation (radians, folded into
// (−π/2, π/2]) the surface applies in transmissive mode at frequency f
// with the current bias, extracted from the Jones matrix.
func (s *Surface) RotationAngle(f float64) float64 {
	return jones.RotationAngle(s.JonesTransmissive(f))
}

// RotationDegrees returns RotationAngle in degrees, as reported in
// Table 1 and Fig. 15(h). The sign is folded out: the paper reports
// magnitudes.
func (s *Surface) RotationDegrees(f float64) float64 {
	return math.Abs(units.Degrees(s.RotationAngle(f)))
}

// BandwidthAboveDB returns the contiguous bandwidth (Hz) around the design
// center where the X-axis efficiency stays above threshDB (e.g. −3 or −5),
// scanned over [fLo, fHi] with the given step. The paper's optimized
// design claims 150 MHz above −5 dB.
func (s *Surface) BandwidthAboveDB(threshDB, fLo, fHi, step float64) float64 {
	if step <= 0 || fHi <= fLo {
		panic("metasurface: bad bandwidth scan range")
	}
	f0 := s.design.CenterHz
	lo, hi := f0, f0
	for f := f0; f >= fLo; f -= step {
		if s.EfficiencyDB(AxisX, f) < threshDB {
			break
		}
		lo = f
	}
	for f := f0; f <= fHi; f += step {
		if s.EfficiencyDB(AxisX, f) < threshDB {
			break
		}
		hi = f
	}
	if hi == lo {
		return 0
	}
	return hi - lo
}
