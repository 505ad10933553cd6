package metasurface

import (
	"fmt"
	"math"
	"testing"

	"github.com/llama-surface/llama/internal/units"
)

// referenceSwing is the calibration swing computed the direct way: every
// bias sample rebuilds the whole stack through bfsStack, C(v) and face
// tank included, and the wrapped phase steps are accumulated.
func referenceSwing(d Design, pitch, vLo, vHi float64) float64 {
	const steps = 64
	d.LoadPitch = pitch
	phaseAt := func(v float64) float64 {
		return d.bfsStack(d.CenterHz, v).ToS(units.Z0FreeSpace).TransmissionPhase()
	}
	total := 0.0
	prev := phaseAt(vLo)
	for i := 1; i <= steps; i++ {
		v := vLo + (vHi-vLo)*float64(i)/steps
		cur := phaseAt(v)
		total += units.NormalizeAngle(cur - prev)
		prev = cur
	}
	return math.Abs(total)
}

// referenceCalibrateLoadPitch is the plain bisection CalibrateLoadPitch
// must reproduce bit for bit: all 80 geometric steps over referenceSwing,
// with no fixed-point exit and nothing hoisted.
func referenceCalibrateLoadPitch(d Design, target, vLo, vHi float64) float64 {
	loPitch, hiPitch := 0.2e-3, 20.0
	if referenceSwing(d, loPitch, vLo, vHi) < target {
		return loPitch
	}
	for i := 0; i < 80; i++ {
		mid := math.Sqrt(loPitch * hiPitch)
		if referenceSwing(d, mid, vLo, vHi) > target {
			loPitch = mid
		} else {
			hiPitch = mid
		}
	}
	return math.Sqrt(loPitch * hiPitch)
}

// prefabDesigns are the three public constructors.
var prefabDesigns = []struct {
	name  string
	build func(centerHz float64) Design
}{
	{"optimized", OptimizedFR4Design},
	{"naive", NaiveFR4Design},
	{"rogers", Rogers5880Design},
}

// TestCalibrateLoadPitchMatchesReference: the hoisted, early-exiting
// bisection returns exactly the reference pitch (same float64 bits) for
// every prefab design at three bands, one to six BFS layers and four
// lower biases — including the layer-count ablation's literal 0.9 V and
// the prefab corner's 2−1.1 V, which differ in the last bit.
func TestCalibrateLoadPitchMatchesReference(t *testing.T) {
	target := units.Radians(97)
	cases := 0
	for _, p := range prefabDesigns {
		for _, f := range []float64{0.915e9, 2.44e9, 5.8e9} {
			base := p.build(f)
			for layers := 1; layers <= 6; layers++ {
				d := base
				d.BFSLayers = layers
				for _, vLo := range []float64{0, 0.9, base.effectiveMinBias(2), 5} {
					got := d.CalibrateLoadPitch(target, vLo, 15)
					want := referenceCalibrateLoadPitch(d, target, vLo, 15)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("%s @%.3g Hz, %d layers, vLo %v: pitch %v, reference %v",
							p.name, f, layers, vLo, got, want)
					}
					cases++
				}
			}
		}
	}
	if cases != 216 {
		t.Fatalf("ran %d cases, want 216", cases)
	}
}

// TestCalibrationSteps pins how many bisection steps each prefab
// calibration runs, counting the step that found the fixed point. The
// bracket reaches it well inside the 80-step bound; a lost fixed-point
// exit shows here as 80.
func TestCalibrationSteps(t *testing.T) {
	want := map[string]int{"optimized": 57, "naive": 58, "rogers": 58}
	for _, p := range prefabDesigns {
		d := p.build(units.DefaultCarrierHz)
		pitch, steps := d.calibrateLoadPitch(units.Radians(97), d.effectiveMinBias(2), 15)
		if pitch != d.LoadPitch {
			t.Errorf("%s: calibrateLoadPitch = %v, constructor pitch %v", p.name, pitch, d.LoadPitch)
		}
		if steps >= calibrationMaxSteps || steps != want[p.name] {
			t.Errorf("%s: %d bisection steps, want %d (< %d)", p.name, steps, want[p.name], calibrationMaxSteps)
		}
	}
}

// TestCalibrationMeetsTarget: the returned pitch does what calibration
// promises, measured by referenceSwing rather than the calibration's own
// path. The bracket runs from the heaviest loading (0.2 mm pitch) to the
// lightest (20 m). Where the target lies inside the swings of its two
// ends, the swing at the returned pitch is within 1e-6 rad of it. Where
// even the heaviest loading falls short, the pitch is exactly 0.2 mm.
// Where even the lightest loading overshoots — the face tanks alone
// swing further — the pitch saturates at exactly 20 m.
//
// The multi-layer prefabs and the four-layer ablation point are in that
// last case: their tanks alone swing 1.96–3.53 rad against the 1.69 rad
// target, so no loading pitch meets it. The saturated field pins which
// cases are there, so a design change that moves one in or out fails
// here.
func TestCalibrationMeetsTarget(t *testing.T) {
	type calCase struct {
		name        string
		d           Design
		target, vLo float64
		short       bool // even the heaviest loading falls short
		saturated   bool // even the lightest loading overshoots
	}
	var cases []calCase
	for _, p := range prefabDesigns {
		for _, f := range []float64{units.DefaultCarrierHz, units.RFIDBandCenter} {
			d := p.build(f)
			cases = append(cases, calCase{name: fmt.Sprintf("%s @%.3g Hz", p.name, f), d: d,
				target: units.Radians(97), vLo: d.effectiveMinBias(2), saturated: d.BFSLayers == 4})
		}
	}
	// The layer-count ablation recalibrates the optimized design at one
	// to four layers from a literal 0.9 V.
	for layers := 1; layers <= 4; layers++ {
		d := OptimizedFR4Design(units.DefaultCarrierHz)
		d.BFSLayers = layers
		cases = append(cases, calCase{name: fmt.Sprintf("abl-layers %d", layers), d: d,
			target: units.Radians(97), vLo: 0.9, saturated: layers == 4})
	}
	// A swing no loading can reach exercises the short fallback.
	cases = append(cases, calCase{name: "unreachable", d: OptimizedFR4Design(units.DefaultCarrierHz),
		target: 100, vLo: 0.9, short: true})

	const heaviest, lightest = 0.2e-3, 20.0
	for _, c := range cases {
		p := c.d.CalibrateLoadPitch(c.target, c.vLo, 15)
		short := referenceSwing(c.d, heaviest, c.vLo, 15) < c.target
		saturated := referenceSwing(c.d, lightest, c.vLo, 15) > c.target
		if short != c.short || saturated != c.saturated {
			t.Errorf("%s: short %v, saturated %v; want %v, %v", c.name, short, saturated, c.short, c.saturated)
		}
		switch {
		case short:
			if p != heaviest {
				t.Errorf("%s: target out of reach, pitch %v, want the fallback %v", c.name, p, heaviest)
			}
		case saturated:
			if p != lightest {
				t.Errorf("%s: target overshot at the lightest loading, pitch %v, want %v", c.name, p, lightest)
			}
		default:
			if got := referenceSwing(c.d, p, c.vLo, 15); math.Abs(got-c.target) > 1e-6 {
				t.Errorf("%s: swing at pitch %v is %v rad, target %v (off by %.3g)", c.name, p, got, c.target, got-c.target)
			}
		}
	}
}
