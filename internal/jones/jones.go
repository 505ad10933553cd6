// Package jones implements Jones calculus for polarized plane waves.
//
// The polarization state of a radio wave is a complex 2-vector (the Jones
// vector, Eq. 1 of the paper); every linear polarization-manipulating
// element — wave plate, birefringent structure, polarizer, the LLAMA
// metasurface itself — is a complex 2×2 Jones matrix, and a stack of
// elements composes by matrix multiplication (Eq. 2). The package provides
// the standard states and elements, the paper's rotator construction
// P = Q₊₄₅°·B·Q₋₄₅° (Eq. 8), and the measurement-side quantities the
// evaluation relies on: polarization loss factor and extracted rotation
// angle.
package jones

import (
	"math"
	"math/cmplx"

	"github.com/llama-surface/llama/internal/mat2"
)

// Vector is a Jones polarization state: complex amplitudes of the X and Y
// field components of a plane wave travelling along +Z.
type Vector = mat2.Vec

// Matrix is a Jones matrix: the linear map an optical/RF element applies to
// a Jones vector.
type Matrix = mat2.Mat

// LinearAt returns the unit Jones vector of a linearly polarized wave whose
// E-field makes angle theta (radians) with the X axis.
func LinearAt(theta float64) Vector {
	return Vector{
		X: complex(math.Cos(theta), 0),
		Y: complex(math.Sin(theta), 0),
	}
}

// Horizontal returns the x̂-polarized unit state.
func Horizontal() Vector { return LinearAt(0) }

// Vertical returns the ŷ-polarized unit state.
func Vertical() Vector { return LinearAt(math.Pi / 2) }

// CircularRight returns the right-hand circular unit state
// (1, −j)/√2 under the physics convention used in the paper's Eq. (1).
func CircularRight() Vector {
	s := complex(1/math.Sqrt2, 0)
	return Vector{X: s, Y: -1i * s}
}

// Rotator returns the Jones matrix of an ideal polarization rotator by
// theta radians: the rotation matrix R(θ) of Eq. (4).
func Rotator(theta float64) Matrix { return mat2.Rotation(theta) }

// Rotated returns the Jones matrix of element m rotated counterclockwise by
// theta: R(θ)·M·R(θ)ᵀ (Eq. 4).
func Rotated(m Matrix, theta float64) Matrix {
	r := mat2.Rotation(theta)
	return r.Mul(m).Mul(r.Transpose())
}

// RotationAngle extracts the equivalent rotation angle (radians, in
// (−π/2, π/2]) of a Jones matrix that is a scalar multiple of a rotation
// matrix, such as the paper's rotator of Eq. (8). For matrices that are
// not pure rotations it returns the angle of the best-fit rotation: the
// polar angle of (Re tr(M·Rᵀ(θ)) maximizer), computed in closed form as
// atan2(C−B, A+D) on the real rotation part.
func RotationAngle(m Matrix) float64 {
	// For M = e^{jφ}·R(θ): A+D = 2e^{jφ}cosθ and C−B = 2e^{jφ}sinθ.
	// Dividing out the common phase keeps only θ.
	sum := m.A + m.D
	dif := m.C - m.B
	// Use the phase of the larger of the two to de-rotate, so θ near ±π/2
	// stays well-conditioned.
	var phase complex128
	if cmplx.Abs(sum) >= cmplx.Abs(dif) {
		phase = cmplx.Exp(complex(0, -cmplx.Phase(sum)))
	} else {
		phase = cmplx.Exp(complex(0, -cmplx.Phase(dif)))
	}
	c := real(sum * phase)
	s := real(dif * phase)
	theta := math.Atan2(s, c)
	// Rotation by θ and θ±π are indistinguishable up to overall sign
	// (common phase) for polarization power purposes; fold into
	// (−π/2, π/2].
	for theta > math.Pi/2 {
		theta -= math.Pi
	}
	for theta <= -math.Pi/2 {
		theta += math.Pi
	}
	return theta
}

// PLF returns the polarization loss factor between a transmitted state t
// and a receive antenna state r: |⟨r̂, t̂⟩|² ∈ [0, 1]. Both states are
// normalized internally; if either is zero PLF returns 0.
func PLF(t, r Vector) float64 {
	tn, ok1 := t.Normalize()
	rn, ok2 := r.Normalize()
	if !ok1 || !ok2 {
		return 0
	}
	d := rn.Dot(tn)
	return real(d)*real(d) + imag(d)*imag(d)
}

// Cascade multiplies element matrices in propagation order: the wave meets
// elems[0] first (Eq. 2: Jout = M_N···M_2·M_1·J_in).
func Cascade(elems ...Matrix) Matrix {
	out := mat2.Identity()
	for _, m := range elems {
		out = m.Mul(out)
	}
	return out
}
