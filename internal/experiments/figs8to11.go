package experiments

import (
	"context"

	"github.com/llama-surface/llama/internal/metasurface"
	"github.com/llama-surface/llama/internal/units"
)

func init() {
	registerSweep(s21Sweep("fig8",
		"S21 efficiency of the Rogers 5880 rotator stack, 2.0–2.8 GHz",
		"Fig. 8 — cascaded rotator on Rogers 5880 (tanδ 0.0009)",
		metasurface.Rogers5880Design(units.DefaultCarrierHz)))
	registerSweep(s21Sweep("fig9",
		"S21 efficiency of the naive FR4 stack (Rogers geometry on cheap laminate)",
		"Fig. 9 — same geometry on FR4 (tanδ 0.02): loss dominates",
		metasurface.NaiveFR4Design(units.DefaultCarrierHz)))
	registerSweep(s21Sweep("fig10",
		"S21 efficiency of the optimized FR4 stack (the LLAMA design)",
		"Fig. 10 — optimized thin two-layer FR4 stack",
		optimizedFR4))
	registerSweep(fig11Sweep())
}

// s21Sweep declares the Figs. 8–10 frequency sweep for one design: one
// point per frequency step, each building its own Surface (SetBias
// mutates surface state, so points must not share one).
func s21Sweep(id, description, title string, design metasurface.Design) *Sweep {
	freqs := axis(2.0e9, 2.8e9+1e6, 0.02e9)
	return &Sweep{
		ID:          id,
		Description: description,
		Title:       title,
		Columns:     []string{"freq_GHz", "effX_dB", "effY_dB"},
		Points:      len(freqs),
		Point: func(ctx context.Context, seed int64, i int) (PointResult, error) {
			surf, err := metasurface.New(design)
			if err != nil {
				return PointResult{}, err
			}
			f := freqs[i]
			// One batched evaluation serves both polarizations: the Jones
			// matrix at (f, 8 V, 8 V) is computed once and projected onto
			// each axis (bit-identical to two EfficiencyDB calls,
			// invariant #11).
			m := surf.JonesBatch(metasurface.Transmissive,
				[]metasurface.BatchPoint{{F: f, VX: 8, VY: 8}}, nil)[0]
			return Row(f/1e9,
				units.LinearToDB(metasurface.JonesEfficiency(m, metasurface.AxisX)),
				units.LinearToDB(metasurface.JonesEfficiency(m, metasurface.AxisY))), nil
		},
		Finish: func(res *Result, seed int64) error {
			surf, err := metasurface.New(design)
			if err != nil {
				return err
			}
			surf.SetBias(8, 8)
			res.AddNote("peak X-pol efficiency %.1f dB; -5 dB bandwidth %.0f MHz",
				maxIn(res.Column(1)), surf.BandwidthAboveDB(-5, 2.0e9, 2.9e9, 5e6)/1e6)
			return nil
		},
	}
}

// fig11Sweep declares the bias-combination frequency sweep: each point is
// one frequency, scanned across the Vy settings with a point-local
// surface.
func fig11Sweep() *Sweep {
	freqs := axis(2.0e9, 2.8e9+1e6, 0.025e9)
	design := optimizedFR4
	biases := []float64{2, 3, 4, 5, 6, 10, 15}
	cols := []string{"freq_GHz"}
	for _, v := range biases {
		cols = append(cols, "Vy="+formatCell(v)+"V_dB")
	}
	return &Sweep{
		ID:          "fig11",
		Description: "S21 efficiency vs frequency under bias combinations (Vy sweep)",
		Title:       "Fig. 11 — S21 efficiency under different Y-axis bias voltages (Vx = 8 V)",
		Columns:     cols,
		Points:      len(freqs),
		Point: func(ctx context.Context, seed int64, i int) (PointResult, error) {
			surf, err := metasurface.New(design)
			if err != nil {
				return PointResult{}, err
			}
			f := freqs[i]
			// The whole Vy axis of this frequency evaluates in one
			// JonesBatch call (bit-identical to the SetBias+EfficiencyDB
			// loop, invariant #11).
			pts := make([]metasurface.BatchPoint, len(biases))
			for j, vy := range biases {
				pts[j] = metasurface.BatchPoint{F: f, VX: 8, VY: vy}
			}
			row := []float64{f / 1e9}
			for _, m := range surf.JonesBatch(metasurface.Transmissive, pts, nil) {
				row = append(row, units.LinearToDB(metasurface.JonesEfficiency(m, metasurface.AxisY)))
			}
			return Row(row...), nil
		},
		Finish: func(res *Result, seed int64) error {
			// Paper claim: always above ≈-8 dB inside 2.4–2.5 GHz.
			worst := 0.0
			for _, row := range res.Rows {
				if row[0] < 2.4 || row[0] > 2.5 {
					continue
				}
				for _, v := range row[1:] {
					if v < worst {
						worst = v
					}
				}
			}
			res.AddNote("worst in-band efficiency across biases: %.1f dB (paper: ≥ -8 dB)", worst)
			return nil
		},
	}
}
