package varactor

// Code only this package's tests call. No figure, command or service
// reaches it, so it is compiled into the tests alone.

import (
	"fmt"
	"math"
)

// BiasFor inverts Capacitance: it returns the reverse bias that produces
// total capacitance c farads, or an error when c lies outside the
// achievable range.
func (m Model) BiasFor(c float64) (float64, error) {
	cMin := m.Capacitance(m.MaxBias)
	cMax := m.Capacitance(m.MinBias)
	if c < cMin || c > cMax {
		return 0, fmt.Errorf("varactor: %s: capacitance %.3g F outside [%.3g, %.3g]",
			m.Name, c, cMin, cMax)
	}
	cj := c - m.Cp
	if cj <= 0 {
		return m.MaxBias, nil
	}
	// Invert C = C0·(1+V/Vj)^−M.
	v := m.Vj * (math.Pow(m.C0/cj, 1/m.M) - 1)
	if v < m.MinBias {
		v = m.MinBias
	}
	if v > m.MaxBias {
		v = m.MaxBias
	}
	return v, nil
}

// TuningRatio returns Cmax/Cmin over the usable bias range.
func (m Model) TuningRatio() float64 {
	return m.Capacitance(m.MinBias) / m.Capacitance(m.MaxBias)
}

// QualityFactor returns the diode Q = 1/(ω·Rs·C) at frequency f and bias
// v. Higher Q means lower insertion loss of the loaded cell.
func (m Model) QualityFactor(f, v float64) float64 {
	if f <= 0 {
		panic("varactor: non-positive frequency")
	}
	if m.Rs == 0 {
		return math.Inf(1)
	}
	w := 2 * math.Pi * f
	return 1 / (w * m.Rs * m.Capacitance(v))
}

// SelfResonance returns the package self-resonant frequency 1/(2π√(Ls·C))
// at bias v; above it the diode looks inductive and tuning inverts.
func (m Model) SelfResonance(v float64) float64 {
	if m.Ls <= 0 {
		return math.Inf(1)
	}
	return 1 / (2 * math.Pi * math.Sqrt(m.Ls*m.Capacitance(v)))
}

// Impedance returns the series Rs + jωLs + 1/(jωC) impedance of the diode
// at frequency f and bias v.
func (m Model) Impedance(f, v float64) complex128 {
	if f <= 0 {
		panic("varactor: non-positive frequency")
	}
	w := 2 * math.Pi * f
	c := m.Capacitance(v)
	return complex(m.Rs, w*m.Ls-1/(w*c))
}

// Bank models the paper's per-axis biasing network: many varactors wired
// in parallel across a bias rail. All diodes see the same bias voltage;
// total leakage scales with count.
type Bank struct {
	// Diode is the per-element model.
	Diode Model
	// Count is the number of varactors on the rail (720 total in the
	// prototype; 360 per axis).
	Count int
}

// HoldTime returns how long a buffer capacitor of cap farads can hold the
// rail within dv volts of the target while supplying the bank's leakage:
// t = C·ΔV/I. This quantifies the paper's point that the surface "can work
// even with one buffer capacitor" at 15 nA scale leakage.
func (b Bank) HoldTime(capF, dv float64) float64 {
	if capF <= 0 || dv <= 0 {
		panic("varactor: hold time needs positive capacitance and droop")
	}
	i := b.TotalLeakage()
	if i <= 0 {
		return math.Inf(1)
	}
	return capF * dv / i
}

// TotalLeakage returns the bank's DC leakage in amperes at any bias.
func (b Bank) TotalLeakage() float64 { return float64(b.Count) * b.Diode.LeakageA }
