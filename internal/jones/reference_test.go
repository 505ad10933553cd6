package jones

// Code only this package's tests call. No figure, command or service
// reaches it, so it is compiled into the tests alone.

import (
	"fmt"
	"math"
	"math/cmplx"

	"github.com/llama-surface/llama/internal/mat2"
)

// DegreeOfPolarization returns sqrt(S1²+S2²+S3²)/S0 ∈ [0,1]; zero for an
// unpolarized field, one for fully polarized. Zero-power states return 0.
func (s StokesVector) DegreeOfPolarization() float64 {
	if s[0] <= 0 {
		return 0
	}
	p := math.Sqrt(s[1]*s[1]+s[2]*s[2]+s[3]*s[3]) / s[0]
	if p > 1 {
		return 1
	}
	return p
}

// Power returns S0.
func (s StokesVector) Power() float64 { return s[0] }

// Scale multiplies all components by k (k ≥ 0 for physical fields).
func (s StokesVector) Scale(k float64) StokesVector {
	return StokesVector{k * s[0], k * s[1], k * s[2], k * s[3]}
}

// Apply returns M·s.
func (m Mueller) Apply(s StokesVector) StokesVector {
	var out StokesVector
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			out[i] += m[i][j] * s[j]
		}
	}
	return out
}

// CircularLeft returns the left-hand circular unit state (1, +j)/√2.
func CircularLeft() Vector {
	s := complex(1/math.Sqrt2, 0)
	return Vector{X: s, Y: 1i * s}
}

// Mul returns the matrix product m·n (n acts first).
func (m Mueller) Mul(n Mueller) Mueller {
	var out Mueller
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			for k := 0; k < 4; k++ {
				out[i][j] += m[i][k] * n[k][j]
			}
		}
	}
	return out
}

// Elliptical returns the Jones vector with X amplitude a, Y amplitude b and
// a relative phase of phi radians on the Y component: [a, b·e^{jφ}]. The
// paper's Eq. (1) is the special case φ = π/2.
func Elliptical(a, b, phi float64) Vector {
	return Vector{
		X: complex(a, 0),
		Y: complex(b, 0) * cmplx.Exp(complex(0, phi)),
	}
}

// MuellerIdentity returns the identity element.
func MuellerIdentity() Mueller {
	var m Mueller
	for i := 0; i < 4; i++ {
		m[i][i] = 1
	}
	return m
}

// MuellerFromJones converts a Jones matrix to its Mueller equivalent via
// M = A·(J⊗J*)·A⁻¹ evaluated element-wise with the standard Pauli-basis
// expansion. Any polarization element expressible in Jones form (i.e. any
// non-depolarizing element) converts exactly.
func MuellerFromJones(j Matrix) Mueller {
	// Pauli-like basis expansion: with J = [a b; c d],
	// the coherency transfer gives the closed forms below (Chipman,
	// Handbook of Optics, ch. 14).
	a, b, c, d := j.A, j.B, j.C, j.D
	aa, bb, cc, dd := norm2(a), norm2(b), norm2(c), norm2(d)
	var m Mueller
	m[0][0] = 0.5 * (aa + bb + cc + dd)
	m[0][1] = 0.5 * (aa - bb + cc - dd)
	m[0][2] = real(a*cmplx.Conj(b) + c*cmplx.Conj(d))
	m[0][3] = imag(a*cmplx.Conj(b) + c*cmplx.Conj(d))
	m[1][0] = 0.5 * (aa + bb - cc - dd)
	m[1][1] = 0.5 * (aa - bb - cc + dd)
	m[1][2] = real(a*cmplx.Conj(b) - c*cmplx.Conj(d))
	m[1][3] = imag(a*cmplx.Conj(b) - c*cmplx.Conj(d))
	m[2][0] = real(a*cmplx.Conj(c) + b*cmplx.Conj(d))
	m[2][1] = real(a*cmplx.Conj(c) - b*cmplx.Conj(d))
	m[2][2] = real(a*cmplx.Conj(d) + b*cmplx.Conj(c))
	m[2][3] = imag(a*cmplx.Conj(d) - b*cmplx.Conj(c))
	m[3][0] = -imag(a*cmplx.Conj(c) + b*cmplx.Conj(d))
	m[3][1] = -imag(a*cmplx.Conj(c) - b*cmplx.Conj(d))
	m[3][2] = -imag(a*cmplx.Conj(d) + b*cmplx.Conj(c))
	m[3][3] = real(a*cmplx.Conj(d) - b*cmplx.Conj(c))
	return m
}

// HalfWavePlate returns an axis-aligned half-wave plate diag(1, −1) with
// common phase alpha.
func HalfWavePlate(alpha float64) Matrix { return WavePlate(alpha, math.Pi) }

// Depolarizer returns the isotropic partial depolarizer that keeps a
// fraction p ∈ [0,1] of the polarized component (p = 1 is identity,
// p = 0 output is fully unpolarized). It panics outside [0,1].
func Depolarizer(p float64) Mueller {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("jones: depolarizer fraction %g outside [0,1]", p))
	}
	var m Mueller
	m[0][0] = 1
	m[1][1], m[2][2], m[3][3] = p, p, p
	return m
}

// DepolarizationIndex returns Chipman's depolarization index of m:
// sqrt((Σ mᵢⱼ² − m00²)/(3·m00²)) ∈ [0,1], 1 for non-depolarizing
// elements. Zero-transmission matrices return 0.
func (m Mueller) DepolarizationIndex() float64 {
	if m[0][0] == 0 {
		return 0
	}
	var sum float64
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			sum += m[i][j] * m[i][j]
		}
	}
	di := math.Sqrt((sum - m[0][0]*m[0][0]) / (3 * m[0][0] * m[0][0]))
	if di > 1 {
		di = 1
	}
	return di
}

// LossyBirefringent returns a BFS with per-axis field transmission
// magnitudes tx, ty (≤1) in addition to the differential phase delta and
// common phase beta. This models the FR4 structure, whose dielectric loss
// makes the element sub-unitary.
func LossyBirefringent(beta, delta, tx, ty float64) Matrix {
	return mat2.Diag(
		complex(tx, 0),
		complex(ty, 0)*cmplx.Exp(complex(0, delta)),
	).Scale(cmplx.Exp(complex(0, beta)))
}

// MultipathStokes incoherently sums the Stokes vectors of a set of field
// contributions (Jones vectors scaled by their amplitudes): the partially
// polarized aggregate a receiver in a scattering environment sees over
// timescales longer than the coherence time.
func MultipathStokes(fields []mat2.Vec) StokesVector {
	var acc StokesVector
	for _, f := range fields {
		acc = acc.Add(StokesOf(f))
	}
	return acc
}

// LinearPolarizer returns the Jones matrix of an ideal linear polarizer
// with transmission axis at angle theta.
func LinearPolarizer(theta float64) Matrix {
	return Rotated(mat2.Diag(1, 0), theta)
}

// PolarizationRotator composes the paper's rotator (Eq. 8):
//
//	P = Q₊₄₅° · B(δ) · Q₋₄₅°
//
// which equals a pure rotation by δ/2 up to a common phase. alpha is the
// QWP common phase, beta the BFS common phase, delta the BFS differential
// phase.
func PolarizationRotator(alpha, beta, delta float64) Matrix {
	qPlus := QWPAt(alpha, math.Pi/4)
	qMinus := QWPAt(alpha, -math.Pi/4)
	b := Birefringent(beta, delta)
	return qPlus.Mul(b).Mul(qMinus)
}

// PolarizedReceivedFraction returns the fraction of a partially polarized
// field's power a linear receive antenna at angle psi captures:
// ½·(1 + p·cos(2(ψ−ψ₀))·plin) where the polarized component's linear part
// projects per Malus and the unpolarized half splits evenly. Expressed
// directly from Stokes components:
//
//	f = ½·(S0 + S1·cos2ψ + S2·sin2ψ) / S0
//
// Zero-power fields return 0.
func (s StokesVector) PolarizedReceivedFraction(psi float64) float64 {
	if s[0] <= 0 {
		return 0
	}
	f := 0.5 * (s[0] + s[1]*math.Cos(2*psi) + s[2]*math.Sin(2*psi)) / s[0]
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// TransmittedPower returns the power gain |M·v̂|² of element M applied to
// the normalized state of v: ≤1 for passive elements. Zero input returns 0.
func TransmittedPower(m Matrix, v Vector) float64 {
	vn, ok := v.Normalize()
	if !ok {
		return 0
	}
	return m.MulVec(vn).NormSq()
}

// OrientationAngle returns the orientation ψ (radians, in (−π/2, π/2]) of
// the polarization ellipse major axis: ψ = ½·atan2(S2, S1).
func OrientationAngle(v Vector) float64 {
	_, s1, s2, _ := Stokes(v)
	psi := 0.5 * math.Atan2(s2, s1)
	for psi > math.Pi/2 {
		psi -= math.Pi
	}
	for psi <= -math.Pi/2 {
		psi += math.Pi
	}
	return psi
}

// AxialRatio returns the polarization ellipse axial ratio (major/minor,
// ≥ 1; +Inf for perfectly linear states).
func AxialRatio(v Vector) float64 {
	chi := math.Abs(EllipticityAngle(v))
	t := math.Tan(chi)
	if t == 0 {
		return math.Inf(1)
	}
	return 1 / t
}

// DegreeOfLinearity returns sqrt(S1²+S2²)/S0 ∈ [0,1]; 1 for purely linear
// states, 0 for circular.
func DegreeOfLinearity(v Vector) float64 {
	s0, s1, s2, _ := Stokes(v)
	if s0 <= 0 {
		return 0
	}
	return math.Hypot(s1, s2) / s0
}

// isUnitary reports whether m†·m ≈ I within tol (element-wise absolute).
func isUnitary(m Matrix, tol float64) bool {
	return m.Adjoint().Mul(m).ApproxEqual(mat2.Identity(), tol)
}

// Mueller is a 4×4 real Mueller matrix acting on Stokes vectors. Where
// Jones calculus describes fully polarized fields, Mueller calculus also
// carries partial polarization — the state of a field after depolarizing
// multipath, which is exactly what a LLAMA surface receives in the
// laboratory environment of §5.1.2.
type Mueller [4][4]float64

// StokesOf returns the Stokes vector of a (fully polarized) Jones state.
func StokesOf(v Vector) StokesVector {
	s0, s1, s2, s3 := Stokes(v)
	return StokesVector{s0, s1, s2, s3}
}

// Add superposes two incoherent fields (Stokes vectors add for mutually
// incoherent waves — the multipath-summation property Jones vectors lack).
func (s StokesVector) Add(o StokesVector) StokesVector {
	return StokesVector{s[0] + o[0], s[1] + o[1], s[2] + o[2], s[3] + o[3]}
}

// QWPAt returns a quarter-wave plate rotated by theta radians, as used for
// the paper's Q₊₄₅° and Q₋₄₅° elements (Eqs. 5–6).
//
// Note the paper writes the rotated plate as R(θ)·M·R(θ) rather than
// R(θ)·M·R(θ)ᵀ; for θ = ±45° the two differ only in a sign convention that
// cancels in the composed rotator. We use the standard similarity transform
// (R·M·Rᵀ) so that individual plates behave physically on their own.
func QWPAt(alpha, theta float64) Matrix {
	return Rotated(QuarterWavePlate(alpha), theta)
}

// Birefringent returns the tunable birefringent structure (BFS) of Eq. (7):
// e^{jβ}·diag(1, e^{jδ}), where delta is the differential transmission
// phase between the X and Y axes set by the bias voltages.
func Birefringent(beta, delta float64) Matrix { return WavePlate(beta, delta) }

// PLFdB returns the polarization mismatch loss in dB (≤ 0), −Inf for fully
// orthogonal states.
func PLFdB(t, r Vector) float64 {
	p := PLF(t, r)
	if p <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(p)
}

// EllipticityAngle returns the ellipticity angle χ ∈ [−π/4, π/4]:
// χ = ½·asin(S3/S0). χ = 0 is linear, ±π/4 is circular.
func EllipticityAngle(v Vector) float64 {
	s0, _, _, s3 := Stokes(v)
	if s0 <= 0 {
		return 0
	}
	r := s3 / s0
	if r > 1 {
		r = 1
	} else if r < -1 {
		r = -1
	}
	return 0.5 * math.Asin(r)
}

// StokesVector is (S0, S1, S2, S3).
type StokesVector [4]float64

func norm2(c complex128) float64 { return real(c)*real(c) + imag(c)*imag(c) }

// QuarterWavePlate returns the axis-aligned QWP of the paper's Eq. (3):
// e^{jα}·diag(1, e^{jπ/2}).
func QuarterWavePlate(alpha float64) Matrix { return WavePlate(alpha, math.Pi/2) }

// Stokes returns the Stokes parameters (S0, S1, S2, S3) of state v:
//
//	S0 = |Ex|² + |Ey|²   total power
//	S1 = |Ex|² − |Ey|²   horizontal/vertical balance
//	S2 = 2·Re(Ex*·Ey)    ±45° balance
//	S3 = 2·Im(Ex*·Ey)    circular balance
func Stokes(v Vector) (s0, s1, s2, s3 float64) {
	px := real(v.X)*real(v.X) + imag(v.X)*imag(v.X)
	py := real(v.Y)*real(v.Y) + imag(v.Y)*imag(v.Y)
	cross := cmplx.Conj(v.X) * v.Y
	return px + py, px - py, 2 * real(cross), 2 * imag(cross)
}

// WavePlate returns the Jones matrix of a retarder whose fast axis lies
// along X, with retardation delta radians applied to the Y component and a
// common phase alpha:
//
//	e^{jα} · diag(1, e^{jδ})
func WavePlate(alpha, delta float64) Matrix {
	return mat2.Diag(1, cmplx.Exp(complex(0, delta))).Scale(cmplx.Exp(complex(0, alpha)))
}
