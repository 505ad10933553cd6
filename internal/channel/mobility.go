package channel

import (
	"math"
	"time"
)

// ArmSwing models a walking user's wrist: a sinusoidal swing around a
// mean pose, the canonical dynamic-mismatch source the paper's Fig. 1
// illustrates.
type ArmSwing struct {
	// MeanRad is the rest orientation.
	MeanRad float64
	// AmplitudeRad is the swing half-angle (≈40–60° walking).
	AmplitudeRad float64
	// PeriodS is the gait cycle (≈1 s walking).
	PeriodS float64
	// PhaseRad offsets the cycle start.
	PhaseRad float64
}

// OrientationAt returns the wrist angle at virtual time t.
func (a ArmSwing) OrientationAt(t time.Duration) float64 {
	return a.MeanRad + a.AmplitudeRad*math.Sin(2*math.Pi*t.Seconds()/a.PeriodS+a.PhaseRad)
}
