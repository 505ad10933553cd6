package control

import (
	"context"
	"errors"
	"fmt"
	"math"
)

// PowerAt measures received power (dBm) with the receiver element rotated
// to rxAngle radians under bias pair (vx, vy) — the turntable-plus-sweep
// primitive of the §3.4 estimation procedure.
type PowerAt func(rxAngle, vx, vy float64) (float64, error)

// RotationEstimateConfig parameterizes the §3.4 procedure.
type RotationEstimateConfig struct {
	// AngleStepDeg is the turntable scan resolution (degrees).
	AngleStepDeg float64
	// Sweep configures the voltage search used in step 2.
	Sweep SweepConfig
	// ReferenceVx, ReferenceVy is the bias applied while locating the
	// matched orientation θ0 in step 1.
	ReferenceVx, ReferenceVy float64
}

// DefaultRotationEstimateConfig returns a 1° turntable scan with the
// paper's sweep settings.
func DefaultRotationEstimateConfig() RotationEstimateConfig {
	return RotationEstimateConfig{AngleStepDeg: 1, Sweep: DefaultSweepConfig(), ReferenceVx: 15, ReferenceVy: 15}
}

// RotationEstimate is the outcome of the §3.4 procedure.
type RotationEstimate struct {
	// Theta0 is the matched receiver orientation (radians) found in
	// step 1.
	Theta0 float64
	// VMin/VMax are the bias pairs giving minimum and maximum power at
	// θ0 (step 2).
	VMinPair, VMaxPair [2]float64
	// ThetaMin/ThetaMax are the re-matched orientations under those
	// states (step 3).
	ThetaMin, ThetaMax float64
	// MinRotationDeg, MaxRotationDeg are |θ0−θmax| and |θ0−θmin| — the
	// paper defines the minimum rotation from the max-power state and
	// vice versa (Fig. 12c).
	MinRotationDeg, MaxRotationDeg float64
	// Switches counts the actuations consumed.
	Switches int
}

// EstimateRotation runs the three-step procedure of §3.4:
//
//  1. rotate the receiver to find the orientation θ0 of maximum power
//     under a reference bias;
//  2. sweep the bias plane to find the voltage pairs of minimum and
//     maximum received power at θ0;
//  3. under each of those states, re-rotate the receiver to find the new
//     matched orientations; their offsets from θ0 are the achievable
//     minimum and maximum polarization rotation angles.
func EstimateRotation(ctx context.Context, cfg RotationEstimateConfig, measure PowerAt) (RotationEstimate, error) {
	if cfg.AngleStepDeg <= 0 || cfg.AngleStepDeg > 45 {
		return RotationEstimate{}, fmt.Errorf("control: bad angle step %g°", cfg.AngleStepDeg)
	}
	if err := cfg.Sweep.Validate(); err != nil {
		return RotationEstimate{}, err
	}
	if measure == nil {
		return RotationEstimate{}, errors.New("control: nil measurement callback")
	}
	var est RotationEstimate

	// Step 1: find θ0.
	theta0, _, n, err := scanOrientation(ctx, cfg, measure, cfg.ReferenceVx, cfg.ReferenceVy)
	if err != nil {
		return est, fmt.Errorf("control: step 1: %w", err)
	}
	est.Theta0 = theta0
	est.Switches += n

	// Step 2: voltage sweep at θ0 for min and max power states.
	act := ActuatorFunc(func(vx, vy float64) error { return nil })
	var lastVx, lastVy float64
	actTrack := ActuatorFunc(func(vx, vy float64) error { lastVx, lastVy = vx, vy; return act.Apply(vx, vy) })
	minP, maxP := math.Inf(1), math.Inf(-1)
	sen := SensorFunc(func() (float64, error) {
		p, err := measure(theta0, lastVx, lastVy)
		if err != nil {
			return 0, err
		}
		if p < minP {
			minP = p
			est.VMinPair = [2]float64{lastVx, lastVy}
		}
		if p > maxP {
			maxP = p
			est.VMaxPair = [2]float64{lastVx, lastVy}
		}
		return p, nil
	})
	sweepRes, err := CoarseToFine(ctx, cfg.Sweep, actTrack, sen)
	if err != nil {
		return est, fmt.Errorf("control: step 2: %w", err)
	}
	est.Switches += sweepRes.Switches

	// Step 3: re-match the receiver under both states.
	thetaMin, _, n, err := scanOrientation(ctx, cfg, measure, est.VMinPair[0], est.VMinPair[1])
	if err != nil {
		return est, fmt.Errorf("control: step 3 (min state): %w", err)
	}
	est.ThetaMin = thetaMin
	est.Switches += n
	thetaMax, _, n, err := scanOrientation(ctx, cfg, measure, est.VMaxPair[0], est.VMaxPair[1])
	if err != nil {
		return est, fmt.Errorf("control: step 3 (max state): %w", err)
	}
	est.ThetaMax = thetaMax
	est.Switches += n

	est.MaxRotationDeg = foldedDegrees(est.Theta0 - est.ThetaMin)
	est.MinRotationDeg = foldedDegrees(est.Theta0 - est.ThetaMax)
	// The labels follow the paper's convention: the state that maximized
	// power at θ0 needed the least rotation; guarantee min ≤ max.
	if est.MinRotationDeg > est.MaxRotationDeg {
		est.MinRotationDeg, est.MaxRotationDeg = est.MaxRotationDeg, est.MinRotationDeg
	}
	return est, nil
}

// scanOrientation rotates the receiver through 180° and returns the
// orientation of maximum power under the given bias.
func scanOrientation(ctx context.Context, cfg RotationEstimateConfig, measure PowerAt, vx, vy float64) (theta float64, power float64, n int, err error) {
	best := math.Inf(-1)
	bestTheta := 0.0
	for deg := 0.0; deg < 180; deg += cfg.AngleStepDeg {
		if err := ctx.Err(); err != nil {
			return 0, 0, n, err
		}
		th := deg * math.Pi / 180
		p, err := measure(th, vx, vy)
		if err != nil {
			return 0, 0, n, err
		}
		n++
		if p > best {
			best, bestTheta = p, th
		}
	}
	return bestTheta, best, n, nil
}

// foldedDegrees maps an orientation difference (radians) into [0°, 90°]:
// linear polarization orientation is mod 180°, and a rotation of θ and
// 180°−θ are indistinguishable in match power.
func foldedDegrees(rad float64) float64 {
	deg := math.Mod(math.Abs(rad)*180/math.Pi, 180)
	if deg > 90 {
		deg = 180 - deg
	}
	return deg
}
