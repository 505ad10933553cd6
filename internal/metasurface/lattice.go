package metasurface

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"

	"github.com/llama-surface/llama/internal/jones"
	"github.com/llama-surface/llama/internal/mat2"
	"github.com/llama-surface/llama/internal/units"
)

// Lattice models the surface as its physical population of functional
// units (180 in the prototype) rather than one homogeneous sheet. Each
// unit carries its own fabrication deviations — bias offset, loss excess,
// detune — and can fail outright (a varactor open or short during
// assembly). The aggregate response is the coherent average of the unit
// responses, which is how a plane wave illuminating the whole panel sums
// the per-unit fields.
//
// The homogeneous Surface type remains the fast path; Lattice answers the
// manufacturing questions the paper's cost argument raises: how much
// fabrication spread and how many dead units can the design absorb before
// the polarization rotation degrades?
type Lattice struct {
	design Design
	units  []latticeUnit

	biasX, biasY float64
}

// latticeUnit is one cell's deviation set.
type latticeUnit struct {
	// biasErrX/Y shift the effective bias the cell's varactors see.
	biasErrX, biasErrY float64
	// lossExcess multiplies the cell's field transmission (≤ 1).
	lossExcess float64
	// detune scales the cell's differential phase.
	detune float64
	// failedX/Y mark dead varactor banks: the axis sticks at zero bias.
	failedX, failedY bool
}

// LatticeSpec sets the manufacturing spread.
type LatticeSpec struct {
	// BiasSpreadV is the per-unit 1σ bias error in volts (assembly and
	// bias-network tolerance).
	BiasSpreadV float64
	// LossSpreadDB is the per-unit 1σ excess loss in dB.
	LossSpreadDB float64
	// DetuneSpread is the per-unit 1σ fractional differential-phase
	// error.
	DetuneSpread float64
	// FailureRate is the probability that a unit's axis bank is dead.
	FailureRate float64
}

// DefaultLatticeSpec returns tolerances typical of cheap FR4 assembly
// with hand-placed varactors — the prototype regime the paper describes
// needing up to 30 V to compensate.
func DefaultLatticeSpec() LatticeSpec {
	return LatticeSpec{BiasSpreadV: 0.6, LossSpreadDB: 0.4, DetuneSpread: 0.05, FailureRate: 0.005}
}

// Validate reports an error for unusable specs.
func (s LatticeSpec) Validate() error {
	switch {
	case s.BiasSpreadV < 0 || s.LossSpreadDB < 0 || s.DetuneSpread < 0:
		return fmt.Errorf("metasurface: negative lattice spread")
	case s.FailureRate < 0 || s.FailureRate > 1:
		return fmt.Errorf("metasurface: failure rate %g outside [0,1]", s.FailureRate)
	}
	return nil
}

// NewLattice draws a manufactured surface instance from the design and
// spec using the seeded RNG.
func NewLattice(d Design, spec LatticeSpec, seed int64) (*Lattice, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	n := d.Units()
	l := &Lattice{design: d, units: make([]latticeUnit, n)}
	for i := range l.units {
		l.units[i] = latticeUnit{
			biasErrX:   spec.BiasSpreadV * rng.NormFloat64(),
			biasErrY:   spec.BiasSpreadV * rng.NormFloat64(),
			lossExcess: units.DBToFieldRatio(-math.Abs(spec.LossSpreadDB * rng.NormFloat64())),
			detune:     1 + spec.DetuneSpread*rng.NormFloat64(),
			failedX:    rng.Float64() < spec.FailureRate,
			failedY:    rng.Float64() < spec.FailureRate,
		}
	}
	return l, nil
}

// SetBias programs the shared bias rails (all units see the same rail,
// §3.3's two-channel biasing).
func (l *Lattice) SetBias(vx, vy float64) {
	l.biasX = units.Clamp(vx, l.design.MinBiasV, l.design.MaxBiasV)
	l.biasY = units.Clamp(vy, l.design.MinBiasV, l.design.MaxBiasV)
}

// FailedUnits returns how many units have at least one dead axis.
func (l *Lattice) FailedUnits() int {
	n := 0
	for _, u := range l.units {
		if u.failedX || u.failedY {
			n++
		}
	}
	return n
}

// unitJones evaluates one unit's transmissive Jones matrix at frequency f
// under the current rails. q is the design's QWP response at f: it
// depends on neither the unit nor the bias, so the caller evaluates it
// once per panel.
func (l *Lattice) unitJones(f float64, u *latticeUnit, q *qwpResponse) mat2.Mat {
	d := &l.design
	vx, vy := l.biasX+u.biasErrX, l.biasY+u.biasErrY
	if u.failedX {
		vx = 0
	}
	if u.failedY {
		vy = 0
	}
	vx = units.Clamp(vx, d.MinBiasV, d.MaxBiasV)
	vy = units.Clamp(vy, d.MinBiasV, d.MaxBiasV)
	tx := d.bfsAxisNetwork(f, AxisX, vx).ToS(units.Z0FreeSpace).S21
	ty := d.bfsAxisNetwork(f, AxisY, vy).ToS(units.Z0FreeSpace).S21
	// The detune deviation scales the differential phase by rotating
	// ty's phase toward/away from tx's.
	if u.detune != 1 {
		dphi := units.NormalizeAngle(cmplx.Phase(ty) - cmplx.Phase(tx))
		ty = cmplx.Rect(cmplx.Abs(ty), cmplx.Phase(tx)+dphi*u.detune)
	}
	bfs := mat2.Diag(tx, ty).Scale(complex(u.lossExcess, 0))
	return q.plus.Mul(bfs).Mul(q.minus)
}

// JonesTransmissive returns the panel's aggregate Jones matrix: the
// coherent mean of the unit responses.
func (l *Lattice) JonesTransmissive(f float64) mat2.Mat {
	q := l.design.qwpEval(f)
	var acc mat2.Mat
	for i := range l.units {
		acc = acc.Add(l.unitJones(f, &l.units[i], &q))
	}
	return acc.Scale(complex(1/float64(len(l.units)), 0))
}

// rotationDegrees is the rotation magnitude, in degrees, of a
// transmissive Jones matrix — Surface.RotationDegrees' extraction.
func rotationDegrees(m mat2.Mat) float64 {
	return math.Abs(units.Degrees(jones.RotationAngle(m)))
}

// YieldReport quantifies manufacturing robustness: the rotation and
// efficiency deltas between this manufactured instance and the ideal
// homogeneous surface at the same bias.
type YieldReport struct {
	// FailedUnits is the count with ≥1 dead axis.
	FailedUnits int
	// RotationDeg is the panel's aggregate rotation magnitude at the
	// compared bias, in degrees.
	RotationDeg float64
	// RotationLossDeg is how much of the ideal rotation the panel lost.
	RotationLossDeg float64
	// EfficiencyLossDB is the extra insertion loss vs ideal.
	EfficiencyLossDB float64
}

// Yield compares the lattice against the ideal surface at bias (vx, vy)
// and frequency f, and leaves the lattice's rails at that bias. Each
// side's rotation and X-polarized efficiency come from one aggregate
// Jones matrix.
func (l *Lattice) Yield(f, vx, vy float64) (YieldReport, error) {
	ideal, err := New(l.design)
	if err != nil {
		return YieldReport{}, err
	}
	ideal.SetBias(vx, vy)
	l.SetBias(vx, vy)
	im := ideal.JonesTransmissive(f)
	m := l.JonesTransmissive(f)
	rot := rotationDegrees(m)
	return YieldReport{
		FailedUnits:     l.FailedUnits(),
		RotationDeg:     rot,
		RotationLossDeg: rotationDegrees(im) - rot,
		EfficiencyLossDB: units.LinearToDB(JonesEfficiency(im, AxisX)) -
			units.LinearToDB(JonesEfficiency(m, AxisX)),
	}, nil
}
