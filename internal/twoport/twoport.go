// Package twoport implements two-port microwave network analysis.
//
// The LLAMA metasurface is analysed per polarization axis as a cascade of
// two-port elements — substrate slabs (lossy transmission-line sections),
// printed admittance patterns (shunt lumped elements) and varactor-loaded
// LC tanks. The package provides ABCD (chain) matrices, scattering (S)
// matrices and the conversion to S (Eqs. 9–10 of the paper). The
// phase-shifter bandwidth relation (Eq. 12) behind the two-layer FR4
// design is checked in the package tests.
//
// Conventions: port 1 is the input, port 2 the output; Z0 is the reference
// impedance for S-parameters (free space when analysing a surface
// illuminated by a plane wave, 50 Ω for circuit fixtures).
package twoport

import (
	"fmt"
	"math"
	"math/cmplx"

	"github.com/llama-surface/llama/internal/mat2"
)

// ABCD is a chain (transmission) matrix relating port-1 voltage/current to
// port-2 voltage/current:
//
//	| V1 |   | A B | | V2 |
//	| I1 | = | C D | | I2 |
//
// Cascading networks multiplies their ABCD matrices in signal order.
type ABCD struct {
	M mat2.Mat
}

// SParams holds the 2×2 scattering matrix of Eq. (10).
type SParams struct {
	S11, S12, S21, S22 complex128
	// Z0 is the reference impedance the parameters are normalized to.
	Z0 float64
}

// Identity returns the ABCD matrix of a zero-length through connection.
func Identity() ABCD { return ABCD{M: mat2.Identity()} }

// Cascade returns the chain product of networks in signal order: the wave
// enters ns[0] first.
func Cascade(ns ...ABCD) ABCD {
	out := mat2.Identity()
	for _, n := range ns {
		out = out.Mul(n.M)
	}
	return ABCD{M: out}
}

// CascadeN returns n identical sections cascaded, computed by binary
// exponentiation (matrix power) rather than a sequential chain product.
// LLAMA's BFS stack is BFSLayers copies of one layer network, so the hot
// evaluation path calls this instead of materializing a slice of repeats:
// no allocation, and ⌈log₂n⌉ multiplies instead of n. n = 0 is the
// zero-length through connection; negative n panics (a chain matrix power
// with negative exponent would be an inverse, which cascading never
// needs).
func CascadeN(section ABCD, n int) ABCD {
	if n < 0 {
		panic("twoport: negative cascade count")
	}
	// Accumulate without seeding from the identity: the first set bit
	// copies the running square directly, so CascadeN(s, 1) == s and
	// CascadeN(s, 2) is bit-identical to Cascade(s, s).
	var out mat2.Mat
	have := false
	base := section.M
	for {
		if n&1 == 1 {
			if have {
				out = out.Mul(base)
			} else {
				out, have = base, true
			}
		}
		n >>= 1
		if n == 0 {
			break
		}
		base = base.Mul(base)
	}
	if !have {
		return Identity()
	}
	return ABCD{M: out}
}

// ShuntAdmittance returns the ABCD matrix of a shunt element with
// admittance y:
//
//	| 1 0 |
//	| y 1 |
func ShuntAdmittance(y complex128) ABCD {
	return ABCD{M: mat2.Mat{A: 1, B: 0, C: y, D: 1}}
}

// TransmissionLine returns the ABCD matrix of a line segment with complex
// characteristic impedance zc and complex propagation constant gamma
// (= α + jβ, nepers and radians per meter) of physical length l:
//
//	| cosh(γl)      zc·sinh(γl) |
//	| sinh(γl)/zc   cosh(γl)    |
func TransmissionLine(zc complex128, gamma complex128, l float64) ABCD {
	gl := gamma * complex(l, 0)
	ch := cmplx.Cosh(gl)
	sh := cmplx.Sinh(gl)
	return ABCD{M: mat2.Mat{
		A: ch, B: zc * sh,
		C: sh / zc, D: ch,
	}}
}

// ToS converts the ABCD matrix to S-parameters normalized to z0, using the
// standard relations (e.g. Pozar, Microwave Engineering, Table 4.2).
func (n ABCD) ToS(z0 float64) SParams {
	if z0 <= 0 {
		panic("twoport: non-positive reference impedance")
	}
	z := complex(z0, 0)
	a, b, c, d := n.M.A, n.M.B, n.M.C, n.M.D
	den := a + b/z + c*z + d
	return SParams{
		S11: (a + b/z - c*z - d) / den,
		S12: 2 * (a*d - b*c) / den,
		S21: 2 / den,
		S22: (-a + b/z - c*z + d) / den,
		Z0:  z0,
	}
}

// IsReciprocal reports whether the network satisfies AD − BC = 1 within
// tol, which holds for any passive reciprocal structure (all of LLAMA's
// layers).
//
//lint:allow unused oracle: the twoport and metasurface tests assert reciprocity with it
func (n ABCD) IsReciprocal(tol float64) bool {
	return cmplx.Abs(n.M.Det()-1) <= tol
}

// InputImpedance returns the impedance seen at port 1 when port 2 is
// terminated in load zl.
func (n ABCD) InputImpedance(zl complex128) complex128 {
	num := n.M.A*zl + n.M.B
	den := n.M.C*zl + n.M.D
	return num / den
}

// TransmissionPhase returns the phase of S21 in radians.
func (s SParams) TransmissionPhase() float64 { return cmplx.Phase(s.S21) }

// IsPassive reports whether the network dissipates or conserves power for
// excitation at either port: columns of S must have ≤ unit power (within
// tol).
//
//lint:allow unused oracle for the passivity property the twoport tests assert and the planned operating-space property checks build on
func (s SParams) IsPassive(tol float64) bool {
	p1 := cmplx.Abs(s.S11)*cmplx.Abs(s.S11) + cmplx.Abs(s.S21)*cmplx.Abs(s.S21)
	p2 := cmplx.Abs(s.S22)*cmplx.Abs(s.S22) + cmplx.Abs(s.S12)*cmplx.Abs(s.S12)
	return p1 <= 1+tol && p2 <= 1+tol
}

// String renders the scattering matrix magnitudes for debugging.
func (s SParams) String() string {
	return fmt.Sprintf("S11=%.3f∠%.1f° S21=%.3f∠%.1f° (Z0=%g)",
		cmplx.Abs(s.S11), cmplx.Phase(s.S11)*180/math.Pi,
		cmplx.Abs(s.S21), cmplx.Phase(s.S21)*180/math.Pi, s.Z0)
}

// ReflectionCoefficient returns (zl−z0)/(zl+z0) for a load zl on a line of
// characteristic impedance z0.
func ReflectionCoefficient(zl, z0 complex128) complex128 {
	return (zl - z0) / (zl + z0)
}
