// Package varactor models the reverse-biased varactor diodes that make the
// LLAMA metasurface tunable.
//
// The paper loads the birefringent-structure (BFS) patterns with Skyworks
// SMV1233 varactors: sweeping the reverse bias from 2 V to 15 V moves the
// junction capacitance from 2.41 pF down to 0.84 pF, detuning an LC tank in
// each unit cell and thereby shifting the transmission phase of that axis.
// The standard junction-capacitance law
//
//	C(V) = C0 / (1 + V/Vj)^M  + Cp
//
// is fitted here to the paper's published (2 V, 2.41 pF) and (15 V,
// 0.84 pF) endpoints.
package varactor

import (
	"fmt"
	"math"
)

// Model describes a varactor diode.
type Model struct {
	// Name identifies the part.
	Name string
	// C0 is the zero-bias junction capacitance in farads (excluding Cp).
	C0 float64
	// Vj is the junction potential in volts.
	Vj float64
	// M is the grading coefficient (0.5 abrupt, ~0.45–1.5 hyperabrupt).
	M float64
	// Cp is the fixed package parasitic capacitance in farads.
	Cp float64
	// Rs is the series resistance in ohms (sets tank Q and loss).
	Rs float64
	// Ls is the package series inductance in henries.
	Ls float64
	// LeakageA is the reverse leakage current in amperes; the paper
	// measures 15 nA for the whole surface, which is what lets LLAMA run
	// from a buffer capacitor.
	LeakageA float64
	// MinBias, MaxBias delimit the usable reverse bias range in volts.
	MinBias, MaxBias float64
}

// SMV1233 is the diode used by the LLAMA prototype. C0/Vj/M are fitted so
// that C(2 V) ≈ 2.41 pF and C(15 V) ≈ 0.84 pF, the range quoted in §3.2;
// Rs and Ls are datasheet-typical for the SC-79 package.
var SMV1233 = Model{
	Name:     "SMV1233",
	C0:       4.389e-12,
	Vj:       1.5,
	M:        0.8368,
	Cp:       0.25e-12,
	Rs:       1.2,
	Ls:       0.7e-9,
	LeakageA: 20e-9,
	MinBias:  0,
	MaxBias:  30,
}

// Validate reports an error for unphysical parameters.
func (m Model) Validate() error {
	switch {
	case m.C0 <= 0:
		return fmt.Errorf("varactor: %s: non-positive C0", m.Name)
	case m.Vj <= 0:
		return fmt.Errorf("varactor: %s: non-positive Vj", m.Name)
	case m.M <= 0:
		return fmt.Errorf("varactor: %s: non-positive grading coefficient", m.Name)
	case m.Cp < 0:
		return fmt.Errorf("varactor: %s: negative parasitic capacitance", m.Name)
	case m.Rs < 0:
		return fmt.Errorf("varactor: %s: negative series resistance", m.Name)
	case m.MinBias < 0 || m.MaxBias <= m.MinBias:
		return fmt.Errorf("varactor: %s: invalid bias range [%g, %g]", m.Name, m.MinBias, m.MaxBias)
	}
	return nil
}

// Capacitance returns the total capacitance in farads at reverse bias v
// volts. Bias is clamped to the usable range, mirroring how the physical
// diode saturates rather than failing outside its spec window.
func (m Model) Capacitance(v float64) float64 {
	if v < m.MinBias {
		v = m.MinBias
	}
	if v > m.MaxBias {
		v = m.MaxBias
	}
	return m.C0/math.Pow(1+v/m.Vj, m.M) + m.Cp
}

// String implements fmt.Stringer.
func (m Model) String() string {
	return fmt.Sprintf("%s: C(%gV)=%.2f pF … C(%gV)=%.2f pF, Rs=%.1f Ω",
		m.Name, m.MinBias, m.Capacitance(m.MinBias)*1e12,
		m.MaxBias, m.Capacitance(m.MaxBias)*1e12, m.Rs)
}
