package experiments

import (
	"context"

	"github.com/llama-surface/llama/internal/channel"
	"github.com/llama-surface/llama/internal/control"
	"github.com/llama-surface/llama/internal/metasurface"
	"github.com/llama-surface/llama/internal/radio"
	"github.com/llama-surface/llama/internal/schedule"
	"github.com/llama-surface/llama/internal/units"
)

func init() {
	registerSweep(extThroughputSweep())
	registerSweep(ablYieldSweep())
	registerSweep(extScheduleSweep())
}

// extThroughputSweep grounds the paper's performance-metrics remark ("an
// increase in the received power usually translates to a throughput
// improvement"): the RSSI gains of Fig. 16 walked through 802.11g rate
// adaptation, one distance per point.
func extThroughputSweep() *Sweep {
	dists := []float64{0.5, 1, 2, 4, 8, 16}
	return &Sweep{
		ID:          "ext-throughput",
		Description: "Extension — Wi-Fi rate-adaptation throughput with/without the surface vs distance",
		Title:       "802.11g adapted throughput over the mismatched link, with vs without LLAMA",
		Columns:     []string{"dist_m", "snr_with_dB", "snr_without_dB", "tput_with_Mbps", "tput_without_Mbps", "speedup"},
		Points:      len(dists),
		Point: func(ctx context.Context, seed int64, i int) (PointResult, error) {
			const frame = 1500
			surf, err := metasurface.New(optimizedFR4)
			if err != nil {
				return PointResult{}, err
			}
			d := dists[i]
			sc := channel.DefaultScene(surf, d)
			sc.TxPowerW = 1e-3 // low-power IoT radio
			act := control.ActuatorFunc(func(vx, vy float64) error { surf.SetBias(vx, vy); return nil })
			sen := control.SensorFunc(func() (float64, error) { return sc.ReceivedPowerDBm(), nil })
			if _, err := control.CoarseToFine(ctx, control.DefaultSweepConfig(), act, sen); err != nil {
				return PointResult{}, err
			}
			base := channel.DefaultScene(nil, d)
			base.TxPowerW = 1e-3
			snrWith := sc.SNR()
			snrWithout := base.SNR()
			tpWith := radio.AdaptedThroughput(radio.WiFi11g, snrWith, frame)
			tpWithout := radio.AdaptedThroughput(radio.WiFi11g, snrWithout, frame)
			speedup := 0.0
			if tpWithout > 0 {
				speedup = tpWith / tpWithout
			}
			return Row(d, units.LinearToDB(snrWith), units.LinearToDB(snrWithout),
				tpWith/1e6, tpWithout/1e6, speedup), nil
		},
		Finish: func(res *Result, seed int64) error {
			res.AddNote("the 15 dB-class polarization gain climbs several rungs of the MCS ladder; at range the mismatched link falls off the PER cliff entirely while the corrected one keeps carrying traffic")
			return nil
		},
	}
}

// ablYieldSweep asks the manufacturing question behind the paper's cost
// argument: how much fabrication spread and how many dead varactors can
// the $5/unit panel absorb? One failure rate per point.
func ablYieldSweep() *Sweep {
	rates := []float64{0, 0.005, 0.02, 0.05, 0.15, 0.30}
	return &Sweep{
		ID:          "abl-yield",
		Description: "Ablation — manufacturing spread and varactor failures vs panel performance",
		Title:       "Manufactured-panel yield: spread/failures vs rotation and efficiency",
		Columns:     []string{"failRate_pct", "failedUnits", "rotation_deg", "rotLoss_deg", "effLoss_dB"},
		Points:      len(rates),
		Point: func(ctx context.Context, seed int64, i int) (PointResult, error) {
			f0 := units.DefaultCarrierHz
			rate := rates[i]
			spec := metasurface.DefaultLatticeSpec()
			spec.FailureRate = rate
			lat, err := metasurface.NewLattice(optimizedFR4, spec, seed)
			if err != nil {
				return PointResult{}, err
			}
			rep, err := lat.Yield(f0, 2, 15)
			if err != nil {
				return PointResult{}, err
			}
			return Row(rate*100, float64(rep.FailedUnits), rep.RotationDeg,
				rep.RotationLossDeg, rep.EfficiencyLossDB), nil
		},
		Finish: func(res *Result, seed int64) error {
			res.AddNote("the coherent average over 180 units makes the panel robust: a few dead varactor banks barely move the aggregate rotation — yield at cheap assembly is not the bottleneck")
			return nil
		},
	}
}

// extScheduleSweep runs the §7 policies over two links with conflicting
// polarization needs. The policies are ranked against each other over one
// shared bias grid, so the comparison is a single sweep point.
func extScheduleSweep() *Sweep {
	return &Sweep{
		ID:          "ext-schedule",
		Description: "Extension — §7 polarization-reuse scheduling policies over two conflicting links",
		Title:       "Polarization-reuse scheduling: per-policy aggregate and worst-link throughput",
		Columns:     []string{"policy_rank", "sum_Mbps", "min_Mbps", "shareA", "shareB"},
		Points:      1,
		Point: func(ctx context.Context, seed int64, _ int) (PointResult, error) {
			surf, err := metasurface.New(optimizedFR4)
			if err != nil {
				return PointResult{}, err
			}
			mk := func(name string, rxOrient, dist float64) schedule.Link {
				sc := channel.DefaultScene(surf, dist)
				sc.Rx.Orientation = rxOrient
				sc.TxPowerW = 2e-5 // mid-ladder regime where conflicts cost rate
				return schedule.Link{
					Name: name,
					Throughput: func(vx, vy float64) float64 {
						surf.SetBias(vx, vy)
						return radio.AdaptedThroughput(radio.WiFi11g, sc.SNR(), 1500)
					},
				}
			}
			links := []schedule.Link{
				mk("device-A", 0, 0.48),
				mk("device-B", 1.2, 0.60),
			}
			ranked, err := schedule.Compare(links, schedule.BiasGrid{VMin: 0, VMax: 30, Step: 3})
			if err != nil {
				return PointResult{}, err
			}
			var pt PointResult
			for i, a := range ranked {
				pt.Rows = append(pt.Rows, []float64{float64(i + 1), a.Sum() / 1e6, a.Min() / 1e6,
					a.PerLink[0].Share, a.PerLink[1].Share})
				pt.AddNote("rank %d = %s", i+1, a.Policy)
			}
			pt.AddNote("with log-like rate curves a static compromise is often competitive; time sharing wins only when the compromise falls off the PER cliff (see schedule package tests)")
			return pt, nil
		},
	}
}
