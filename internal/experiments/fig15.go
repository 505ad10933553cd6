package experiments

import (
	"context"

	"github.com/llama-surface/llama/internal/channel"
	"github.com/llama-surface/llama/internal/control"
	"github.com/llama-surface/llama/internal/metasurface"
)

// Fig15Distances are the paper's half-wavelength Tx–Rx steps (§5.1.1).
var Fig15Distances = []float64{0.24, 0.30, 0.36, 0.42, 0.48, 0.54, 0.60}

func init() {
	registerSweep(&Sweep{
		ID:          "fig15",
		Description: "Fig. 15 — transmissive power heatmaps over the bias plane at 7 Tx–Rx distances, plus rotation range vs distance",
		Title:       "Fig. 15 — bias-plane power landscape vs distance (mismatched, absorber)",
		Columns:     []string{"dist_cm", "bestVx_V", "bestVy_V", "peak_dBm", "valley_dBm", "range_dB", "maxRot_deg", "minRot_deg"},
		Points:      len(Fig15Distances),
		Point:       fig15Point,
		Finish: func(res *Result, seed int64) error {
			res.AddNote("optimal bias pair shifts with distance (surface↔Tx standing wave); paper Fig. 15(h): rotation 3°–45°")
			return nil
		},
	})
	registerSweep(&Sweep{
		ID:          "fig16",
		Description: "Fig. 16 — received power with/without the surface vs Tx–Rx distance (mismatched)",
		Title:       "Fig. 16 — received power with vs without the metasurface (mismatched polarization)",
		Columns:     []string{"dist_cm", "with_dBm", "without_dBm", "gain_dB"},
		Points:      len(Fig15Distances),
		Point:       fig16Point,
		Finish: func(res *Result, seed int64) error {
			gains := res.Column(3)
			res.AddNote("max gain %.1f dB across distances (paper: up to 15 dB → 5.6× range per Friis)", maxIn(gains))
			return nil
		},
	})
}

// fig15Point runs one Tx–Rx distance: a full bias-plane scan for the
// power landscape, then the §3.4 rotation-range estimate (coarser
// turntable for speed). Each point owns its Surface — the scan mutates
// bias state, so points must not share one.
func fig15Point(ctx context.Context, seed int64, i int) (PointResult, error) {
	surf, err := metasurface.New(optimizedFR4)
	if err != nil {
		return PointResult{}, err
	}
	d := Fig15Distances[i]
	sc := channel.DefaultScene(surf, d)
	act := control.ActuatorFunc(func(vx, vy float64) error {
		surf.SetBias(vx, vy)
		return nil
	})
	sen := control.SensorFunc(func() (float64, error) { return sc.ReceivedPowerDBm(), nil })
	scan, err := control.FullScan(ctx, control.DefaultSweepConfig(), 1.5, act, sen)
	if err != nil {
		return PointResult{}, err
	}
	valley := scan.Samples[0].PowerDBm
	for _, s := range scan.Samples {
		if s.PowerDBm < valley {
			valley = s.PowerDBm
		}
	}
	// Fig. 15(h): rotation range achieved at this distance, via the
	// §3.4 estimation procedure (coarser turntable for speed).
	cfg := control.DefaultRotationEstimateConfig()
	cfg.AngleStepDeg = 3
	est, err := control.EstimateRotation(ctx, cfg,
		func(rxAngle, vx, vy float64) (float64, error) {
			surf.SetBias(vx, vy)
			scRot := channel.DefaultScene(surf, d)
			scRot.Tx.Orientation = 0
			scRot.Rx.Orientation = rxAngle
			return scRot.ReceivedPowerDBm(), nil
		})
	if err != nil {
		return PointResult{}, err
	}
	return Row(d*100, scan.BestVx, scan.BestVy, scan.BestPowerDBm, valley,
		scan.BestPowerDBm-valley, est.MaxRotationDeg, est.MinRotationDeg), nil
}

// fig16Point scans one distance with the surface and compares the best
// bias against the bare mismatched link.
func fig16Point(ctx context.Context, seed int64, i int) (PointResult, error) {
	surf, err := metasurface.New(optimizedFR4)
	if err != nil {
		return PointResult{}, err
	}
	d := Fig15Distances[i]
	sc := channel.DefaultScene(surf, d)
	act := control.ActuatorFunc(func(vx, vy float64) error { surf.SetBias(vx, vy); return nil })
	sen := control.SensorFunc(func() (float64, error) { return sc.ReceivedPowerDBm(), nil })
	scan, err := control.FullScan(ctx, control.DefaultSweepConfig(), 1, act, sen)
	if err != nil {
		return PointResult{}, err
	}
	base := channel.DefaultScene(nil, d)
	return Row(d*100, scan.BestPowerDBm, base.ReceivedPowerDBm(), scan.BestPowerDBm-base.ReceivedPowerDBm()), nil
}
