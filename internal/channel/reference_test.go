package channel

// Code only this package's tests call. No figure, command or service
// reaches it, so it is compiled into the tests alone.

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// StaticPose is a fixed orientation (a wall-mounted device).
type StaticPose float64

// Validate reports an error for unusable swings.
func (a ArmSwing) Validate() error {
	if a.AmplitudeRad < 0 {
		return fmt.Errorf("channel: negative swing amplitude")
	}
	if a.PeriodS <= 0 {
		return fmt.Errorf("channel: non-positive swing period")
	}
	return nil
}

// NewRandomWalkPose pre-draws a walk of the given duration: reversion
// pulls the pose back toward mean, sigma is the per-tick innovation.
func NewRandomWalkPose(mean, sigma, reversion float64, tick, duration time.Duration, seed int64) (*RandomWalkPose, error) {
	if sigma < 0 || reversion < 0 || reversion > 1 {
		return nil, fmt.Errorf("channel: bad walk parameters σ=%g κ=%g", sigma, reversion)
	}
	if tick <= 0 || duration <= 0 {
		return nil, fmt.Errorf("channel: walk needs positive tick and duration")
	}
	rng := rand.New(rand.NewSource(seed))
	n := int(duration/tick) + 1
	samples := make([]float64, n)
	x := 0.0
	for i := range samples {
		samples[i] = mean + x
		x = (1-reversion)*x + sigma*rng.NormFloat64()
	}
	return &RandomWalkPose{mean: mean, samples: samples, tick: tick}, nil
}

// Turntable models the §3.4 measurement rig: a constant-rate rotation
// used to scan receiver orientations.
type Turntable struct {
	// StartRad is the orientation at t = 0.
	StartRad float64
	// RateRadPerS is the rotation speed.
	RateRadPerS float64
}

// MismatchTimeline evaluates the instantaneous polarization mismatch loss
// (dB ≤ 0) between a moving transmitter and a static receiver over a time
// grid — the raw material for "how often does the link fall below X dB"
// availability questions.
func MismatchTimeline(sc *Scene, txMotion Trajectory, step, duration time.Duration) []float64 {
	if step <= 0 || duration <= 0 {
		panic("channel: timeline needs positive step and duration")
	}
	if txMotion == nil {
		panic("channel: nil trajectory")
	}
	n := int(duration/step) + 1
	out := make([]float64, n)
	work := *sc
	for i := 0; i < n; i++ {
		work.Tx.Orientation = txMotion.OrientationAt(time.Duration(i) * step)
		out[i] = work.ReceivedPowerDBm()
	}
	return out
}

// Availability returns the fraction of timeline samples at or above the
// threshold (dBm) — link availability under motion.
func Availability(timeline []float64, thresholdDBm float64) float64 {
	if len(timeline) == 0 {
		return 0
	}
	up := 0
	for _, p := range timeline {
		if p >= thresholdDBm {
			up++
		}
	}
	return float64(up) / float64(len(timeline))
}

// CapacityBps returns the Shannon capacity over the noise bandwidth using
// the measured SNR.
func (s *Scene) CapacityBps() float64 {
	snr := s.MeasuredSNR()
	if snr <= 0 {
		return 0
	}
	return s.NoiseBandwidthHz * math.Log2(1+snr)
}

// OrientationAt implements Trajectory.
func (s StaticPose) OrientationAt(time.Duration) float64 { return float64(s) }

// OrientationAt implements Trajectory.
func (tt Turntable) OrientationAt(t time.Duration) float64 {
	return tt.StartRad + tt.RateRadPerS*t.Seconds()
}

// Trajectory produces an endpoint orientation (radians) as a function of
// virtual time — the motion models behind Fig. 1's wearable scenarios.
type Trajectory interface {
	// OrientationAt returns the element angle at virtual time t.
	OrientationAt(t time.Duration) float64
}

// RandomWalkPose models slow fidgeting: an Ornstein–Uhlenbeck-like
// orientation drift around a mean, sampled on a fixed tick so the
// trajectory is deterministic per seed and time-queryable.
type RandomWalkPose struct {
	mean    float64
	samples []float64
	tick    time.Duration
}

// OrientationAt implements Trajectory, clamping beyond the pre-drawn
// horizon to the last sample.
func (r *RandomWalkPose) OrientationAt(t time.Duration) float64 {
	if t < 0 {
		return r.samples[0]
	}
	i := int(t / r.tick)
	if i >= len(r.samples) {
		return r.samples[len(r.samples)-1]
	}
	return r.samples[i]
}
