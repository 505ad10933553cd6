package metasurface

// Code only this package's tests call. No figure, command or service
// reaches it, so it is compiled into the tests alone.

import (
	"math/cmplx"

	"github.com/llama-surface/llama/internal/mat2"
	"github.com/llama-surface/llama/internal/units"
)

// MustNewLattice panics on error; for prefab designs in examples/tests.
func MustNewLattice(d Design, spec LatticeSpec, seed int64) *Lattice {
	l, err := NewLattice(d, spec, seed)
	if err != nil {
		panic(err)
	}
	return l
}

// Design returns the lattice's design description.
func (l *Lattice) Design() Design { return l.design }

// Units returns the unit count.
func (l *Lattice) Units() int { return len(l.units) }

// Bias returns the rail voltages.
func (l *Lattice) Bias() (vx, vy float64) { return l.biasX, l.biasY }

// Entries returns the total entry count of the export.
func (t TableExport) Entries() int { return len(t.Axis) + len(t.QWP) }

// ExportResponseTables snapshots every registered design table in a
// canonical order: tables sorted by fingerprint, axis entries by
// (axis, frequency bits, bias bits), QWP entries by frequency bits.
// Two processes holding the same entries export identical bytes, which
// keeps persisted table records diff-stable.
func ExportResponseTables() []TableExport {
	list := registered()
	out := make([]TableExport, 0, len(list))
	for _, t := range list {
		out = append(out, t.export())
	}
	return out
}

// Jones returns the surface's Jones matrix in the given mode.
func (s *Surface) Jones(mode Mode, f float64) mat2.Mat {
	if mode == Reflective {
		return s.JonesReflective(f)
	}
	return s.JonesTransmissive(f)
}

// DifferentialPhase returns δ = arg(Ty) − arg(Tx) (radians, wrapped to
// (−π, π]) of the BFS at frequency f with the current bias — the quantity
// the rotator halves (θr = δ/2, Eq. 8).
func (s *Surface) DifferentialPhase(f float64) float64 {
	tx := s.AxisTransmission(AxisX, f, s.biasX)
	ty := s.AxisTransmission(AxisY, f, s.biasY)
	return units.NormalizeAngle(cmplx.Phase(ty) - cmplx.Phase(tx))
}

// InsertionLossDB returns the best-case power insertion loss (dB ≥ 0) of
// the surface in transmissive mode at frequency f for an X-polarized
// wave: −10·log10(efficiency).
func (s *Surface) InsertionLossDB(f float64) float64 {
	return -s.EfficiencyDB(AxisX, f)
}

// AxisTransmission returns the complex through-stack transmission
// coefficient of one BFS principal axis at frequency f and bias v,
// referenced to free space.
func (s *Surface) AxisTransmission(axis Axis, f, v float64) complex128 {
	return s.axisAt(axis, f, v).s.S21
}
