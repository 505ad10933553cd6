// Package control implements LLAMA's centralized controller logic (§3.3–
// §3.4): the coarse-to-fine biasing voltage sweep of Algorithm 1, the
// exhaustive full scan it replaces, and the polarization-rotation-degree
// estimation procedure. The receiver/power-supply synchronization of
// Eq. 13 is checked in the package tests.
//
// The algorithms are expressed over small interfaces (Actuator to apply a
// bias pair, Sensor to obtain a fresh RSSI) so the same code drives the
// in-process simulator, the networked SCPI+UDP stack, and the unit tests.
package control

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/llama-surface/llama/internal/units"
)

// Actuator applies a bias-voltage pair to the surface (directly or through
// the SCPI power supply).
type Actuator interface {
	Apply(vx, vy float64) error
}

// Sensor returns a fresh received-power measurement (dBm) taken under the
// currently applied bias. Implementations block until the measurement
// postdates the last Apply (the synchronization contract of §3.3).
type Sensor interface {
	Measure() (float64, error)
}

// ActuatorFunc adapts a function to the Actuator interface.
type ActuatorFunc func(vx, vy float64) error

// Apply implements Actuator.
func (f ActuatorFunc) Apply(vx, vy float64) error { return f(vx, vy) }

// SensorFunc adapts a function to the Sensor interface.
type SensorFunc func() (float64, error)

// Measure implements Sensor.
func (f SensorFunc) Measure() (float64, error) { return f() }

// SweepConfig parameterizes Algorithm 1.
type SweepConfig struct {
	// Iterations is N: the number of coarse-to-fine refinement rounds
	// (2 in the paper).
	Iterations int
	// Switches is T: the number of voltage steps per axis per iteration
	// (5 in the paper), giving T² measurements per iteration.
	Switches int
	// VMin, VMax bound the sweep (0–30 V with the paper's supply).
	VMin, VMax float64
	// SwitchPeriod is the per-measurement dwell (20 ms at the supply's
	// 50 Hz switch limit).
	SwitchPeriod time.Duration
}

// DefaultSweepConfig returns the paper's operating point: N=2, T=5,
// 0–30 V at 50 Hz.
func DefaultSweepConfig() SweepConfig {
	return SweepConfig{Iterations: 2, Switches: 5, VMin: 0, VMax: 30, SwitchPeriod: 20 * time.Millisecond}
}

// Validate reports an error for unusable configurations.
func (c SweepConfig) Validate() error {
	switch {
	case c.Iterations < 1:
		return errors.New("control: sweep needs ≥1 iteration")
	case c.Switches < 2:
		return errors.New("control: sweep needs ≥2 switches per axis")
	case !(c.VMax > c.VMin):
		return fmt.Errorf("control: bad voltage range [%g, %g]", c.VMin, c.VMax)
	case c.SwitchPeriod <= 0:
		return errors.New("control: non-positive switch period")
	}
	return nil
}

// Sample is one sweep measurement.
type Sample struct {
	Vx, Vy   float64
	PowerDBm float64
}

// Result summarizes a sweep.
type Result struct {
	// BestVx, BestVy is the optimal bias pair found.
	BestVx, BestVy float64
	// BestPowerDBm is the power measured there.
	BestPowerDBm float64
	// Samples is the full measurement history in sweep order.
	Samples []Sample
	// Switches counts actuations (for time accounting).
	Switches int
}

// record appends one measurement to the history, counts its actuation,
// and keeps it as the optimum when it beats the best so far.
func (r *Result) record(s Sample) {
	r.Samples = append(r.Samples, s)
	r.Switches++
	if s.PowerDBm > r.BestPowerDBm {
		r.BestVx, r.BestVy, r.BestPowerDBm = s.Vx, s.Vy, s.PowerDBm
	}
}

// Elapsed returns the wall/virtual time the sweep consumed at the given
// switch period.
func (r Result) Elapsed(period time.Duration) time.Duration {
	return time.Duration(r.Switches) * period
}

// CoarseToFine runs Algorithm 1: each iteration lays a T×T voltage grid
// over the current search window, measures every combination, then
// shrinks the window to one step around the best cell. ctx aborts the
// sweep between measurements.
func CoarseToFine(ctx context.Context, cfg SweepConfig, act Actuator, sen Sensor) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	loX, hiX := cfg.VMin, cfg.VMax
	loY, hiY := cfg.VMin, cfg.VMax
	res := Result{BestPowerDBm: math.Inf(-1)}
	for n := 0; n < cfg.Iterations; n++ {
		stepX := (hiX - loX) / float64(cfg.Switches)
		stepY := (hiY - loY) / float64(cfg.Switches)
		var itBest Sample
		itBest.PowerDBm = math.Inf(-1)
		for i := 1; i <= cfg.Switches; i++ {
			for j := 1; j <= cfg.Switches; j++ {
				if err := ctx.Err(); err != nil {
					return res, fmt.Errorf("control: sweep aborted: %w", err)
				}
				vx := loX + float64(i)*stepX
				vy := loY + float64(j)*stepY
				s, err := measureAt(act, sen, vx, vy)
				if err != nil {
					return res, err
				}
				res.Samples = append(res.Samples, s)
				res.Switches++
				if s.PowerDBm > itBest.PowerDBm {
					itBest = s
				}
			}
		}
		if itBest.PowerDBm > res.BestPowerDBm {
			res.BestVx, res.BestVy, res.BestPowerDBm = itBest.Vx, itBest.Vy, itBest.PowerDBm
		}
		// Narrow to one step around the winner (Algorithm 1's
		// return Vr = [v−Vs, v]); clamp to the legal range.
		loX = units.Clamp(itBest.Vx-stepX, cfg.VMin, cfg.VMax)
		hiX = units.Clamp(itBest.Vx, cfg.VMin, cfg.VMax)
		loY = units.Clamp(itBest.Vy-stepY, cfg.VMin, cfg.VMax)
		hiY = units.Clamp(itBest.Vy, cfg.VMin, cfg.VMax)
		if hiX <= loX {
			hiX = loX + stepX/float64(cfg.Switches)
		}
		if hiY <= loY {
			hiY = loY + stepY/float64(cfg.Switches)
		}
	}
	// Leave the surface at the optimum.
	if err := act.Apply(res.BestVx, res.BestVy); err != nil {
		return res, fmt.Errorf("control: applying optimum: %w", err)
	}
	res.Switches++
	return res, nil
}

// scanVoltages returns the per-axis voltage grid a FullScan with this
// config and step visits: VMin + i·stepV for every i whose voltage fits
// the range. Indexing (rather than accumulating vx += stepV) keeps every
// scan of the same range on bit-identical voltages — accumulated
// rounding error on non-representable steps (0.1, …) can drop or
// duplicate the last grid column. The epsilon admits a last column that
// lands within float noise of VMax.
func scanVoltages(cfg SweepConfig, stepV float64) []float64 {
	steps := int(math.Floor((cfg.VMax-cfg.VMin)/stepV + 1e-9))
	out := make([]float64, steps+1)
	for i := range out {
		out[i] = cfg.VMin + float64(i)*stepV
	}
	return out
}

// FullScan measures every combination on a uniform grid with the given
// voltage step — the ~30 s exhaustive baseline the paper's Algorithm 1
// replaces (§3.3). It returns the complete grid for heatmap rendering
// (Figs. 15 and 21).
func FullScan(ctx context.Context, cfg SweepConfig, stepV float64, act Actuator, sen Sensor) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if stepV <= 0 {
		return Result{}, errors.New("control: non-positive scan step")
	}
	res := Result{BestPowerDBm: math.Inf(-1)}
	voltages := scanVoltages(cfg, stepV)
	for _, vx := range voltages {
		for _, vy := range voltages {
			if err := ctx.Err(); err != nil {
				return res, fmt.Errorf("control: scan aborted: %w", err)
			}
			s, err := measureAt(act, sen, vx, vy)
			if err != nil {
				return res, err
			}
			res.record(s)
		}
	}
	if err := act.Apply(res.BestVx, res.BestVy); err != nil {
		return res, fmt.Errorf("control: applying optimum: %w", err)
	}
	res.Switches++
	return res, nil
}

// CoordinateDescent is the ablation comparator: golden-section search on
// one axis at a time, alternating for rounds. It needs fewer switches
// than Algorithm 1 on smooth landscapes but can stall on the ridged
// power surfaces the metasurface produces.
func CoordinateDescent(ctx context.Context, cfg SweepConfig, rounds int, act Actuator, sen Sensor) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if rounds < 1 {
		return Result{}, errors.New("control: descent needs ≥1 round")
	}
	res := Result{BestPowerDBm: math.Inf(-1)}
	vx := (cfg.VMin + cfg.VMax) / 2
	vy := (cfg.VMin + cfg.VMax) / 2
	const phi = 0.6180339887498949
	search := func(measure func(v float64) (float64, error)) (float64, error) {
		lo, hi := cfg.VMin, cfg.VMax
		a := hi - phi*(hi-lo)
		b := lo + phi*(hi-lo)
		fa, err := measure(a)
		if err != nil {
			return 0, err
		}
		fb, err := measure(b)
		if err != nil {
			return 0, err
		}
		for it := 0; it < 12 && hi-lo > 0.5; it++ {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			if fa < fb { // maximizing
				lo = a
				a, fa = b, fb
				b = lo + phi*(hi-lo)
				if fb, err = measure(b); err != nil {
					return 0, err
				}
			} else {
				hi = b
				b, fb = a, fa
				a = hi - phi*(hi-lo)
				if fa, err = measure(a); err != nil {
					return 0, err
				}
			}
		}
		return (lo + hi) / 2, nil
	}
	for r := 0; r < rounds; r++ {
		nx, err := search(func(v float64) (float64, error) {
			s, err := measureAt(act, sen, v, vy)
			if err != nil {
				return 0, err
			}
			res.record(s)
			return s.PowerDBm, nil
		})
		if err != nil {
			return res, err
		}
		vx = nx
		ny, err := search(func(v float64) (float64, error) {
			s, err := measureAt(act, sen, vx, v)
			if err != nil {
				return 0, err
			}
			res.record(s)
			return s.PowerDBm, nil
		})
		if err != nil {
			return res, err
		}
		vy = ny
	}
	if err := act.Apply(res.BestVx, res.BestVy); err != nil {
		return res, fmt.Errorf("control: applying optimum: %w", err)
	}
	res.Switches++
	return res, nil
}

func measureAt(act Actuator, sen Sensor, vx, vy float64) (Sample, error) {
	if err := act.Apply(vx, vy); err != nil {
		return Sample{}, fmt.Errorf("control: apply (%g, %g): %w", vx, vy, err)
	}
	p, err := sen.Measure()
	if err != nil {
		return Sample{}, fmt.Errorf("control: measure at (%g, %g): %w", vx, vy, err)
	}
	return Sample{Vx: vx, Vy: vy, PowerDBm: p}, nil
}
