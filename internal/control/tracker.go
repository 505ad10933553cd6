package control

import (
	"context"
	"errors"
	"fmt"
	"math"
)

// Tracker maintains the surface's optimum under drift: a wearable swings
// its arm, furniture moves, the environment changes. Instead of re-running
// the full Algorithm 1 sweep continuously (25 switches per second of
// budget), the tracker watches the link and escalates through three
// tiers:
//
//  1. hold — power within the hysteresis band of the last optimum: do
//     nothing (zero switch cost);
//  2. refine — mild degradation: a small local grid around the current
//     bias pair (T×T over a ±window);
//  3. re-sweep — severe degradation: the full coarse-to-fine sweep.
//
// This is the natural production extension of §3.3's one-shot sweep, and
// what the wearable scenario in examples/ exercises.
type Tracker struct {
	cfg TrackerConfig
	act Actuator
	sen Sensor

	// reference is the power at the last accepted optimum.
	reference float64
	// vx, vy is the current bias pair.
	vx, vy float64
	// stats accumulate across Step calls.
	stats TrackerStats
	ready bool
}

// TrackerConfig tunes the escalation ladder.
type TrackerConfig struct {
	// Sweep is the full-sweep fallback configuration.
	Sweep SweepConfig
	// RefineWindowV is the ± bias window of the local refinement grid.
	RefineWindowV float64
	// RefineSteps is the per-axis grid size of the refinement tier.
	RefineSteps int
	// HoldToleranceDB degradation below this does nothing.
	HoldToleranceDB float64
	// ResweepThresholdDB degradation beyond this triggers a full sweep.
	ResweepThresholdDB float64
}

// DefaultTrackerConfig returns a ladder matched to the paper's sweep
// economics: hold within 1 dB, refine within 6 dB, re-sweep beyond.
func DefaultTrackerConfig() TrackerConfig {
	return TrackerConfig{
		Sweep:              DefaultSweepConfig(),
		RefineWindowV:      4,
		RefineSteps:        3,
		HoldToleranceDB:    1,
		ResweepThresholdDB: 6,
	}
}

// Validate reports an error for unusable ladders.
func (c TrackerConfig) Validate() error {
	if err := c.Sweep.Validate(); err != nil {
		return err
	}
	switch {
	case c.RefineWindowV <= 0:
		return errors.New("control: non-positive refine window")
	case c.RefineSteps < 2:
		return errors.New("control: refine grid needs ≥2 steps")
	case c.HoldToleranceDB <= 0:
		return errors.New("control: non-positive hold tolerance")
	case c.ResweepThresholdDB <= c.HoldToleranceDB:
		return errors.New("control: re-sweep threshold must exceed hold tolerance")
	}
	return nil
}

// TrackerStats counts tier activations and switch spend.
type TrackerStats struct {
	Holds, Refines, Resweeps int
	Switches                 int
}

// Action identifies which tier a Step took.
type Action int

// Tracker actions.
const (
	ActionHold Action = iota
	ActionRefine
	ActionResweep
)

// String implements fmt.Stringer.
func (a Action) String() string {
	switch a {
	case ActionHold:
		return "hold"
	case ActionRefine:
		return "refine"
	default:
		return "re-sweep"
	}
}

// NewTracker builds a tracker over an actuator/sensor pair.
func NewTracker(cfg TrackerConfig, act Actuator, sen Sensor) (*Tracker, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if act == nil || sen == nil {
		return nil, errors.New("control: tracker needs an actuator and a sensor")
	}
	return &Tracker{cfg: cfg, act: act, sen: sen}, nil
}

// Stats returns the accumulated tier counts.
func (t *Tracker) Stats() TrackerStats { return t.stats }

// Start performs the initial full sweep.
func (t *Tracker) Start(ctx context.Context) error {
	res, err := CoarseToFine(ctx, t.cfg.Sweep, t.act, t.sen)
	if err != nil {
		return fmt.Errorf("control: tracker start: %w", err)
	}
	t.vx, t.vy = res.BestVx, res.BestVy
	t.reference = res.BestPowerDBm
	t.stats.Switches += res.Switches
	t.stats.Resweeps++
	t.ready = true
	return nil
}

// Step measures the link once and escalates as needed, returning the tier
// taken and the post-step power.
func (t *Tracker) Step(ctx context.Context) (Action, float64, error) {
	if !t.ready {
		return ActionHold, 0, errors.New("control: tracker not started")
	}
	p, err := t.sen.Measure()
	if err != nil {
		return ActionHold, 0, fmt.Errorf("control: tracker measure: %w", err)
	}
	drop := t.reference - p
	switch {
	case drop <= t.cfg.HoldToleranceDB:
		t.stats.Holds++
		// Ratchet the reference upward if the link improved by itself.
		if p > t.reference {
			t.reference = p
		}
		return ActionHold, p, nil
	case drop <= t.cfg.ResweepThresholdDB:
		np, err := t.refine(ctx)
		if err != nil {
			return ActionRefine, p, err
		}
		t.stats.Refines++
		return ActionRefine, np, nil
	default:
		res, err := CoarseToFine(ctx, t.cfg.Sweep, t.act, t.sen)
		if err != nil {
			return ActionResweep, p, fmt.Errorf("control: tracker re-sweep: %w", err)
		}
		t.vx, t.vy = res.BestVx, res.BestVy
		t.reference = res.BestPowerDBm
		t.stats.Switches += res.Switches
		t.stats.Resweeps++
		return ActionResweep, res.BestPowerDBm, nil
	}
}

// refine runs the local grid around the current bias.
func (t *Tracker) refine(ctx context.Context) (float64, error) {
	best := math.Inf(-1)
	bvx, bvy := t.vx, t.vy
	n := t.cfg.RefineSteps
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if err := ctx.Err(); err != nil {
				return 0, fmt.Errorf("control: refine aborted: %w", err)
			}
			vx := t.vx + t.cfg.RefineWindowV*(2*float64(i)/float64(n-1)-1)
			vy := t.vy + t.cfg.RefineWindowV*(2*float64(j)/float64(n-1)-1)
			vx = clamp(vx, t.cfg.Sweep.VMin, t.cfg.Sweep.VMax)
			vy = clamp(vy, t.cfg.Sweep.VMin, t.cfg.Sweep.VMax)
			s, err := measureAt(t.act, t.sen, vx, vy)
			if err != nil {
				return 0, err
			}
			t.stats.Switches++
			if s.PowerDBm > best {
				best, bvx, bvy = s.PowerDBm, s.Vx, s.Vy
			}
		}
	}
	if err := t.act.Apply(bvx, bvy); err != nil {
		return 0, fmt.Errorf("control: refine apply: %w", err)
	}
	t.stats.Switches++
	t.vx, t.vy = bvx, bvy
	t.reference = best
	return best, nil
}
