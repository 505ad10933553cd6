// Package mat2 implements complex 2-vectors and 2×2 complex matrices.
//
// These are the algebraic foundation for Jones calculus (package jones) and
// for two-port microwave network analysis (package twoport): polarization
// states are complex 2-vectors, while wave plates, birefringent structures,
// ABCD matrices and scattering matrices are all complex 2×2 matrices.
package mat2

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Vec is a complex column 2-vector [X, Y].
type Vec struct {
	X, Y complex128
}

// Mat is a complex 2×2 matrix in row-major order:
//
//	| A B |
//	| C D |
type Mat struct {
	A, B complex128
	C, D complex128
}

// Identity returns the 2×2 identity matrix.
func Identity() Mat { return Mat{A: 1, D: 1} }

// Rotation returns the real rotation matrix R(θ) for a counterclockwise
// rotation by θ radians:
//
//	| cosθ −sinθ |
//	| sinθ  cosθ |
//
// This is Eq. (4) of the paper.
func Rotation(theta float64) Mat {
	c := complex(math.Cos(theta), 0)
	s := complex(math.Sin(theta), 0)
	return Mat{A: c, B: -s, C: s, D: c}
}

// Diag returns the diagonal matrix diag(a, d).
func Diag(a, d complex128) Mat { return Mat{A: a, D: d} }

// Scale returns m scaled by the complex factor k.
func (m Mat) Scale(k complex128) Mat {
	return Mat{A: k * m.A, B: k * m.B, C: k * m.C, D: k * m.D}
}

// Add returns m + n.
func (m Mat) Add(n Mat) Mat {
	return Mat{A: m.A + n.A, B: m.B + n.B, C: m.C + n.C, D: m.D + n.D}
}

// Mul returns the matrix product m·n.
func (m Mat) Mul(n Mat) Mat {
	return Mat{
		A: m.A*n.A + m.B*n.C,
		B: m.A*n.B + m.B*n.D,
		C: m.C*n.A + m.D*n.C,
		D: m.C*n.B + m.D*n.D,
	}
}

// MulVec returns the matrix-vector product m·v.
func (m Mat) MulVec(v Vec) Vec {
	return Vec{
		X: m.A*v.X + m.B*v.Y,
		Y: m.C*v.X + m.D*v.Y,
	}
}

// Transpose returns the transpose of m.
func (m Mat) Transpose() Mat { return Mat{A: m.A, B: m.C, C: m.B, D: m.D} }

// Conj returns the element-wise complex conjugate of m.
func (m Mat) Conj() Mat {
	return Mat{A: cmplx.Conj(m.A), B: cmplx.Conj(m.B), C: cmplx.Conj(m.C), D: cmplx.Conj(m.D)}
}

// Adjoint returns the conjugate transpose (Hermitian adjoint) m†.
func (m Mat) Adjoint() Mat { return m.Conj().Transpose() }

// Det returns the determinant of m.
func (m Mat) Det() complex128 { return m.A*m.D - m.B*m.C }

// Trace returns the trace of m.
func (m Mat) Trace() complex128 { return m.A + m.D }

// MaxAbs returns the largest element magnitude, a cheap matrix norm used
// for tolerance scaling.
//
//lint:allow unused oracle: the twoport tests and the root benchmarks scale tolerances by it
func (m Mat) MaxAbs() float64 {
	max := cmplx.Abs(m.A)
	for _, e := range []complex128{m.B, m.C, m.D} {
		if a := cmplx.Abs(e); a > max {
			max = a
		}
	}
	return max
}

// ApproxEqual reports whether every element of m and n is within tol.
//
//lint:allow unused oracle: the jones, twoport and metasurface tests compare matrices with it
func (m Mat) ApproxEqual(n Mat, tol float64) bool {
	return cmplx.Abs(m.A-n.A) <= tol &&
		cmplx.Abs(m.B-n.B) <= tol &&
		cmplx.Abs(m.C-n.C) <= tol &&
		cmplx.Abs(m.D-n.D) <= tol
}

// String renders the matrix for debugging.
func (m Mat) String() string {
	return fmt.Sprintf("[%v %v; %v %v]", m.A, m.B, m.C, m.D)
}

// Add returns v + w.
func (v Vec) Add(w Vec) Vec { return Vec{X: v.X + w.X, Y: v.Y + w.Y} }

// Scale returns v scaled by the complex factor k.
func (v Vec) Scale(k complex128) Vec { return Vec{X: k * v.X, Y: k * v.Y} }

// Dot returns the Hermitian inner product ⟨v, w⟩ = conj(v)·w.
func (v Vec) Dot(w Vec) complex128 {
	return cmplx.Conj(v.X)*w.X + cmplx.Conj(v.Y)*w.Y
}

// Norm returns the Euclidean norm ‖v‖.
func (v Vec) Norm() float64 { return math.Sqrt(real(v.Dot(v))) }

// NormSq returns ‖v‖², which for a Jones vector is the wave power in
// arbitrary units.
func (v Vec) NormSq() float64 { return real(v.Dot(v)) }

// Normalize returns v/‖v‖ and true, or the zero vector and false when v is
// (numerically) zero.
func (v Vec) Normalize() (Vec, bool) {
	n := v.Norm()
	if n < 1e-300 {
		return Vec{}, false
	}
	return v.Scale(complex(1/n, 0)), true
}

// String renders the vector for debugging.
func (v Vec) String() string { return fmt.Sprintf("[%v; %v]", v.X, v.Y) }
