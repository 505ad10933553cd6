package metasurface

import (
	"fmt"
	"math"
	"math/rand"

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
// under the current rails.
func (l *Lattice) unitJones(f float64, u latticeUnit) mat2.Mat {
	d := l.design
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
		dphi := units.NormalizeAngle(phase(ty) - phase(tx))
		ty = rect(abs(ty), phase(tx)+dphi*u.detune)
	}
	bfs := mat2.Diag(tx, ty).Scale(complex(u.lossExcess, 0))
	qPlus := d.qwpJones(f, math.Pi/4)
	qMinus := d.qwpJones(f, -math.Pi/4)
	return qPlus.Mul(bfs).Mul(qMinus)
}

// JonesTransmissive returns the panel's aggregate Jones matrix: the
// coherent mean of the unit responses.
func (l *Lattice) JonesTransmissive(f float64) mat2.Mat {
	var acc mat2.Mat
	for _, u := range l.units {
		acc = acc.Add(l.unitJones(f, u))
	}
	return acc.Scale(complex(1/float64(len(l.units)), 0))
}

// RotationDegrees extracts the aggregate rotation magnitude in degrees.
func (l *Lattice) RotationDegrees(f float64) float64 {
	return math.Abs(units.Degrees(rotationAngleOf(l.JonesTransmissive(f))))
}

// Efficiency returns the aggregate Eq. 11 efficiency for an X-polarized
// wave.
func (l *Lattice) Efficiency(f float64) float64 {
	m := l.JonesTransmissive(f)
	e := m.MulVec(mat2.Vec{X: 1})
	return e.NormSq()
}

// EfficiencyDB returns Efficiency in dB.
func (l *Lattice) EfficiencyDB(f float64) float64 {
	return units.LinearToDB(l.Efficiency(f))
}

// YieldReport quantifies manufacturing robustness: the rotation and
// efficiency deltas between this manufactured instance and the ideal
// homogeneous surface at the same bias.
type YieldReport struct {
	// FailedUnits is the count with ≥1 dead axis.
	FailedUnits int
	// RotationLossDeg is how much of the ideal rotation the panel lost.
	RotationLossDeg float64
	// EfficiencyLossDB is the extra insertion loss vs ideal.
	EfficiencyLossDB float64
}

// Yield compares the lattice against the ideal surface at bias (vx, vy)
// and frequency f.
func (l *Lattice) Yield(f, vx, vy float64) (YieldReport, error) {
	ideal, err := New(l.design)
	if err != nil {
		return YieldReport{}, err
	}
	ideal.SetBias(vx, vy)
	l.SetBias(vx, vy)
	return YieldReport{
		FailedUnits:      l.FailedUnits(),
		RotationLossDeg:  ideal.RotationDegrees(f) - l.RotationDegrees(f),
		EfficiencyLossDB: ideal.EfficiencyDB(AxisX, f) - l.EfficiencyDB(f),
	}, nil
}

// Small complex helpers that keep unitJones readable without importing
// math/cmplx at every call site.
func phase(c complex128) float64 { return math.Atan2(imag(c), real(c)) }
func abs(c complex128) float64   { return math.Hypot(real(c), imag(c)) }
func rect(r, th float64) complex128 {
	return complex(r*math.Cos(th), r*math.Sin(th))
}

// rotationAngleOf mirrors jones.RotationAngle without the import cycle
// (jones imports mat2 only, but keeping metasurface's dependency list
// tight): extract the best-fit rotation angle of m.
func rotationAngleOf(m mat2.Mat) float64 {
	sum := m.A + m.D
	dif := m.C - m.B
	var ph float64
	if abs(sum) >= abs(dif) {
		ph = -phase(sum)
	} else {
		ph = -phase(dif)
	}
	rot := rect(1, ph)
	c := real(sum * rot)
	s := real(dif * rot)
	th := math.Atan2(s, c)
	for th > math.Pi/2 {
		th -= math.Pi
	}
	for th <= -math.Pi/2 {
		th += math.Pi
	}
	return th
}
