package twoport

// Code only this package's tests call. No figure, command or service
// reaches it, so it is compiled into the tests alone.

import (
	"math"
	"math/cmplx"

	"github.com/llama-surface/llama/internal/mat2"
)

// SeriesImpedance returns the ABCD matrix of a series element with
// impedance z:
//
//	| 1 z |
//	| 0 1 |
func SeriesImpedance(z complex128) ABCD {
	return ABCD{M: mat2.Mat{A: 1, B: z, C: 0, D: 1}}
}

// ShuntImpedance returns a shunt element specified by impedance z. A zero
// impedance is a short circuit across the line, which has no finite
// admittance representation; it panics in that case.
func ShuntImpedance(z complex128) ABCD {
	if z == 0 {
		panic("twoport: shunt short circuit has infinite admittance")
	}
	return ShuntAdmittance(1 / z)
}

// LosslessLine returns a transmission line with purely imaginary
// propagation (γ = jβ), given phase constant beta (rad/m) and length l.
func LosslessLine(zc complex128, beta, l float64) ABCD {
	return TransmissionLine(zc, complex(0, beta), l)
}

// Transformer returns the ABCD matrix of an ideal transformer with turns
// ratio n (V1 = n·V2).
func Transformer(n float64) ABCD {
	if n == 0 {
		panic("twoport: transformer with zero turns ratio")
	}
	return ABCD{M: mat2.Mat{A: complex(n, 0), D: complex(1/n, 0)}}
}

// FromS converts S-parameters back to an ABCD matrix.
func FromS(s SParams) ABCD {
	z := complex(s.Z0, 0)
	den := 2 * s.S21
	if den == 0 {
		panic("twoport: S21 = 0 has no ABCD representation")
	}
	return ABCD{M: mat2.Mat{
		A: ((1+s.S11)*(1-s.S22) + s.S12*s.S21) / den,
		B: z * ((1+s.S11)*(1+s.S22) - s.S12*s.S21) / den,
		C: ((1-s.S11)*(1-s.S22) - s.S12*s.S21) / (z * den),
		D: ((1-s.S11)*(1+s.S22) + s.S12*s.S21) / den,
	}}
}

// TransmissionMagDB returns |S21|² in dB — the "efficiency" quantity the
// paper plots in Figs. 8–11.
func (s SParams) TransmissionMagDB() float64 {
	m := cmplx.Abs(s.S21)
	if m <= 0 {
		return math.Inf(-1)
	}
	return 20 * math.Log10(m)
}

// VSWR returns the voltage standing-wave ratio at port 1.
func (s SParams) VSWR() float64 {
	g := cmplx.Abs(s.S11)
	if g >= 1 {
		return math.Inf(1)
	}
	return (1 + g) / (1 - g)
}

// PhaseShifterBandwidth implements Eq. (12) of the paper: the usable
// bandwidth of a transmission-line phase shifter whose line length is λ/m,
// centered at f0, with maximum tolerable reflection coefficient gammaMax,
// between source impedance z0 and load impedance zl:
//
//	Δf = f0·(2 − (m/π)·arccos[ Γ/√(1−Γ²) · 2√(Z0·ZL)/|ZL−Z0| ])
//
// Bandwidth shrinks as the line gets electrically shorter at f0 (larger
// m): the arccos term is multiplied by m/π. This is the relation behind
// the paper's design note that "transmission bandwidth … changes
// approximately linearly with the length of the transmission line", which
// is why LLAMA stacks two phase-shifter layers to cover the ISM band.
//
// When the arccos argument exceeds 1 the match is good enough everywhere
// and the bandwidth is unbounded by mismatch; the function returns +Inf.
// A formula result below zero (severe mismatch on a short line) clamps to
// 0 — no usable passband. It panics for invalid gammaMax outside (0, 1)
// or non-positive impedances.
func PhaseShifterBandwidth(f0 float64, m float64, gammaMax, z0, zl float64) float64 {
	if gammaMax <= 0 || gammaMax >= 1 {
		panic("twoport: gammaMax must be in (0,1)")
	}
	if z0 <= 0 || zl <= 0 {
		panic("twoport: impedances must be positive")
	}
	if z0 == zl {
		return math.Inf(1) // perfectly matched at all frequencies
	}
	arg := gammaMax / math.Sqrt(1-gammaMax*gammaMax) *
		2 * math.Sqrt(z0*zl) / math.Abs(zl-z0)
	if arg >= 1 {
		return math.Inf(1)
	}
	bw := f0 * (2 - (m/math.Pi)*math.Acos(arg))
	if bw < 0 {
		return 0
	}
	return bw
}

// QuarterWaveTransformer returns the characteristic impedance of a λ/4
// matching section between z0 and zl.
func QuarterWaveTransformer(z0, zl float64) float64 {
	if z0 <= 0 || zl <= 0 {
		panic("twoport: impedances must be positive")
	}
	return math.Sqrt(z0 * zl)
}

// MismatchLossDB returns the power lost to reflection at an interface with
// reflection coefficient magnitude |Γ|: −10·log10(1−|Γ|²).
func MismatchLossDB(gamma float64) float64 {
	g2 := gamma * gamma
	if g2 >= 1 {
		return math.Inf(1)
	}
	return -10 * math.Log10(1-g2)
}

// SeriesRLC returns the impedance of a series R-L-C branch at angular
// frequency w. A zero capacitance means "no capacitor" (short, not open),
// matching how the branch is used to model varactor parasitics.
func SeriesRLC(r, l, c, w float64) complex128 {
	z := complex(r, w*l)
	if c > 0 {
		z += complex(0, -1/(w*c))
	}
	return z
}

// ParallelLC returns the impedance of an ideal parallel LC tank at angular
// frequency w. At resonance the impedance diverges; slightly off resonance
// it is large and reactive, which is how the varactor-loaded patterns
// produce a bias-dependent transmission phase.
func ParallelLC(l, c, w float64) complex128 {
	if l <= 0 || c <= 0 || w <= 0 {
		panic("twoport: parallel LC needs positive L, C, ω")
	}
	zl := InductorImpedance(l, w)
	zc := CapacitorImpedance(c, w)
	den := zl + zc
	if den == 0 {
		return complex(math.Inf(1), 0)
	}
	return zl * zc / den
}

// ResonantFrequency returns 1/(2π√(LC)).
func ResonantFrequency(l, c float64) float64 {
	if l <= 0 || c <= 0 {
		panic("twoport: resonance needs positive L and C")
	}
	return 1 / (2 * math.Pi * math.Sqrt(l*c))
}

// CapacitorImpedance returns 1/(jωC) at angular frequency w.
func CapacitorImpedance(c, w float64) complex128 {
	if c <= 0 || w <= 0 {
		panic("twoport: capacitor impedance needs positive C and ω")
	}
	return complex(0, -1/(w*c))
}

// InductorImpedance returns jωL at angular frequency w.
func InductorImpedance(l, w float64) complex128 {
	return complex(0, w*l)
}
