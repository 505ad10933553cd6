package mat2

// Code only this package's tests call. No figure, command or service
// reaches it, so it is compiled into the tests alone.

import (
	"math"
	"math/cmplx"
)

// Zero returns the zero matrix.
func Zero() Mat { return Mat{} }

// Sub returns m − n.
func (m Mat) Sub(n Mat) Mat {
	return Mat{A: m.A - n.A, B: m.B - n.B, C: m.C - n.C, D: m.D - n.D}
}

// Inverse returns m⁻¹ and true, or the zero matrix and false when m is
// singular (|det| below tol, using 1e-12 relative to the largest element).
func (m Mat) Inverse() (Mat, bool) {
	det := m.Det()
	scale := m.MaxAbs()
	if scale == 0 || cmplx.Abs(det) < 1e-12*scale*scale {
		return Mat{}, false
	}
	inv := 1 / det
	return Mat{A: m.D * inv, B: -m.B * inv, C: -m.C * inv, D: m.A * inv}, true
}

// FrobeniusNorm returns the Frobenius norm sqrt(Σ|mᵢⱼ|²).
func (m Mat) FrobeniusNorm() float64 {
	s := 0.0
	for _, e := range []complex128{m.A, m.B, m.C, m.D} {
		a := cmplx.Abs(e)
		s += a * a
	}
	return math.Sqrt(s)
}

// IsUnitary reports whether m†·m ≈ I within tol (element-wise absolute).
// Lossless polarization elements (ideal wave plates, rotators) are unitary;
// lossy ones (FR4 structures) are strictly sub-unitary.
func (m Mat) IsUnitary(tol float64) bool {
	p := m.Adjoint().Mul(m)
	return p.ApproxEqual(Identity(), tol)
}

// ApproxEqual reports whether both components are within tol.
func (v Vec) ApproxEqual(w Vec, tol float64) bool {
	return cmplx.Abs(v.X-w.X) <= tol && cmplx.Abs(v.Y-w.Y) <= tol
}
