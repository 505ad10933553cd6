package control

// Code only this package's tests call. No figure, command or service
// reaches it, so it is compiled into the tests alone.

import (
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/llama-surface/llama/internal/telemetry"
)

// SyncConfig implements the paper's Eq. (13) sample-labelling scheme: the
// receiver's sample clock and the supply's switch clock are both constant
// rate, so a sample at time t can be attributed to the voltage state that
// was active, without any dedicated synchronization hardware.
type SyncConfig struct {
	// Vx0, Vy0 are the sweep's initial voltages at switch index 0.
	Vx0, Vy0 float64
	// VDx, VDy are the per-switch voltage increments (the VD terms).
	VDx, VDy float64
	// SwitchPeriod is Ts, the dwell per voltage state.
	SwitchPeriod time.Duration
	// StartOffset is td, the receiver-vs-supply start time difference.
	StartOffset time.Duration
	// States is the total number of voltage states in the schedule;
	// times beyond the schedule clamp to the last state.
	States int
}

// VoltageAt returns the (Vx, Vy) state active at receiver time t — Eq. 13
// evaluated at the labelled switch index.
func (s SyncConfig) VoltageAt(t time.Duration) (vx, vy float64) {
	k := float64(s.StateIndex(t))
	return s.Vx0 + s.VDx*k, s.Vy0 + s.VDy*k
}

// LabelReports groups RSSI reports by voltage state and returns the mean
// power (dBm domain averaged in linear power, as the paper measures) per
// state. States with no samples hold NaN.
func (s SyncConfig) LabelReports(reports []telemetry.Report) []float64 {
	if err := s.Validate(); err != nil {
		panic(err)
	}
	sums := make([]float64, s.States)
	counts := make([]int, s.States)
	for _, r := range reports {
		idx := s.StateIndex(r.Timestamp)
		sums[idx] += math.Pow(10, r.RSSIdBm/10) // mW
		counts[idx]++
	}
	out := make([]float64, s.States)
	for i := range out {
		if counts[i] == 0 {
			out[i] = math.NaN()
			continue
		}
		out[i] = 10 * math.Log10(sums[i]/float64(counts[i]))
	}
	return out
}

// EstimateOffset recovers td from a labelled sweep recording: it scans
// candidate offsets over one switch period and picks the one minimizing
// the within-state power variance (samples grouped correctly are
// homogeneous; a misaligned grouping mixes adjacent states). resolution
// sets the scan granularity.
func (s SyncConfig) EstimateOffset(reports []telemetry.Report, resolution time.Duration) (time.Duration, error) {
	if err := s.Validate(); err != nil {
		return 0, err
	}
	if resolution <= 0 || resolution > s.SwitchPeriod {
		return 0, fmt.Errorf("control: bad offset resolution %v", resolution)
	}
	if len(reports) == 0 {
		return 0, errors.New("control: no reports to align")
	}
	best := time.Duration(0)
	bestScore := math.Inf(1)
	for off := time.Duration(0); off < s.SwitchPeriod; off += resolution {
		trial := s
		trial.StartOffset = off
		score := trial.withinStateVariance(reports)
		if score < bestScore {
			bestScore, best = score, off
		}
	}
	return best, nil
}

// ReferenceDBm returns the power at the last accepted optimum.
func (t *Tracker) ReferenceDBm() float64 { return t.reference }

// CompareSweepTimes computes the summary for a given configuration and
// full-scan step.
func CompareSweepTimes(cfg SweepConfig, fullStepV float64) (SweepTimeSummary, error) {
	if err := cfg.Validate(); err != nil {
		return SweepTimeSummary{}, err
	}
	if fullStepV <= 0 {
		return SweepTimeSummary{}, errors.New("control: non-positive full-scan step")
	}
	stepsPerAxis := int((cfg.VMax-cfg.VMin)/fullStepV) + 1
	full := time.Duration(stepsPerAxis*stepsPerAxis) * cfg.SwitchPeriod
	fast := cfg.TimeCost()
	return SweepTimeSummary{
		FullScan:     full,
		CoarseToFine: fast,
		Speedup:      float64(full) / float64(fast),
	}, nil
}

// RefineCost returns the switch budget of one refinement (grid plus the
// final apply) — n²+1 against the full sweep's N·T²+1.
func (c TrackerConfig) RefineCost() int { return c.RefineSteps*c.RefineSteps + 1 }

// TrackingBudget estimates the mean switches/second a deployment spends
// given an observed action mix, at the supply's switch period.
func (c TrackerConfig) TrackingBudget(stats TrackerStats, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(stats.Switches) / elapsed.Seconds()
}

// Validate reports an error for unusable sync parameters.
func (s SyncConfig) Validate() error {
	if s.SwitchPeriod <= 0 {
		return errors.New("control: non-positive switch period")
	}
	if s.States < 1 {
		return errors.New("control: sync needs ≥1 state")
	}
	return nil
}

// StateIndex returns the voltage-state index active at receiver time t.
// Samples before the schedule start map to state 0.
func (s SyncConfig) StateIndex(t time.Duration) int {
	rel := t - s.StartOffset
	if rel < 0 {
		return 0
	}
	idx := int(rel / s.SwitchPeriod)
	if idx >= s.States {
		idx = s.States - 1
	}
	return idx
}

// withinStateVariance sums the per-state power variance (linear domain).
func (s SyncConfig) withinStateVariance(reports []telemetry.Report) float64 {
	sums := make([]float64, s.States)
	sqs := make([]float64, s.States)
	counts := make([]float64, s.States)
	for _, r := range reports {
		idx := s.StateIndex(r.Timestamp)
		p := math.Pow(10, r.RSSIdBm/10)
		sums[idx] += p
		sqs[idx] += p * p
		counts[idx]++
	}
	var total float64
	for i := range sums {
		if counts[i] < 2 {
			continue
		}
		mean := sums[i] / counts[i]
		total += sqs[i]/counts[i] - mean*mean
	}
	return total
}

// TimeCost returns the sweep duration predicted by the paper's model:
// SwitchPeriod · N · T² (0.02·N·T² seconds at 50 Hz).
func (c SweepConfig) TimeCost() time.Duration {
	return time.Duration(c.Iterations*c.Switches*c.Switches) * c.SwitchPeriod
}

// SweepTimeSummary reports the time-cost comparison the paper makes in
// §3.3: the full scan at 1 V steps takes ~30 s, while Algorithm 1 with
// N=2, T=5 completes in 0.02·N·T² = 1 s.
type SweepTimeSummary struct {
	FullScan     time.Duration
	CoarseToFine time.Duration
	Speedup      float64
}
