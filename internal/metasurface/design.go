// Package metasurface implements the LLAMA programmable polarization
// rotator: the paper's primary contribution.
//
// The physical surface is a laminated PCB stack — two quarter-wave-plate
// (QWP) boards rotated ±45° sandwiching a tunable birefringent structure
// (BFS) whose X- and Y-axis transmission phases are set by varactor bias
// voltages (Fig. 6). In place of the paper's HFSS full-wave solver, each
// principal axis of each board is modelled as a synthetic transmission-line
// section (slow-wave loaded line) with:
//
//   - phase constant from the effective index (plus varactor loading for
//     the BFS axes, via the standard distributed-loading relation),
//   - attenuation from substrate dielectric loss scaled by a field
//     concentration factor, conductor loss, and varactor ESR,
//   - characteristic-impedance deviation from free space, producing the
//     Fabry–Pérot ripple visible in the paper's S21 plots.
//
// Cascading the per-axis ABCD matrices and converting to S-parameters
// (Eqs. 9–10) yields complex transmission coefficients Tx(f,Vx), Ty(f,Vy);
// the surface's Jones matrix is then Q₊₄₅·diag(Tx,Ty)·Q₋₄₅ (Eq. 8), from
// which the polarization rotation θr = δ/2 and the transmission
// efficiencies of Eq. 11 follow.
package metasurface

import (
	"fmt"
	"math"

	"github.com/llama-surface/llama/internal/materials"
	"github.com/llama-surface/llama/internal/twoport"
	"github.com/llama-surface/llama/internal/units"
	"github.com/llama-surface/llama/internal/varactor"
)

// Axis selects one of the two principal axes of the birefringent layers.
type Axis int

// The two principal axes. The X axis is horizontal in the surface frame.
const (
	AxisX Axis = iota
	AxisY
)

// String implements fmt.Stringer.
func (a Axis) String() string {
	if a == AxisX {
		return "X"
	}
	return "Y"
}

// Mode selects how the surface is deployed (§3.2).
type Mode int

const (
	// Transmissive: endpoints on opposite sides, signal passes through.
	Transmissive Mode = iota
	// Reflective: endpoints on the same side, signal reflects off the
	// metal backplane behind the stack.
	Reflective
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == Transmissive {
		return "transmissive"
	}
	return "reflective"
}

// Design is the buildable description of a LLAMA-style polarization
// rotator. Use one of the prefab constructors (OptimizedFR4Design,
// NaiveFR4Design, Rogers5880Design) or fill the fields and call Validate.
type Design struct {
	// Name labels the design in reports.
	Name string
	// Substrate is the PCB dielectric.
	Substrate materials.Dielectric
	// Diode is the varactor model loading the BFS patterns.
	Diode varactor.Model
	// CenterHz is the design center frequency f0.
	CenterHz float64

	// PatternIndex is the base slow-wave refractive index of the printed
	// sections: meandered copper patterns slow the guided wave well below
	// c, which is what makes electrically long paths fit in a thin board.
	PatternIndex float64

	// QWPLayerThickness is the dielectric thickness of each QWP board,
	// meters (BoM accounting).
	QWPLayerThickness float64
	// QWPPath is the electrical path length (meters) of the meandered
	// pattern traces of one QWP board (Fig. 6's inner + outer patterns) —
	// the length the guided wave actually travels per board.
	QWPPath float64
	// QWPConcentration multiplies the substrate's bulk dielectric
	// attenuation along the patterned path: printed slow-wave patterns
	// concentrate fields in the laminate.
	QWPConcentration float64
	// QWPMismatch is the fractional characteristic-impedance deviation
	// of the QWP sections from free space (Fabry–Pérot ripple source).
	QWPMismatch float64
	// QWPSelectivity is the normalized susceptance slope (B·Z0 per unit
	// fractional detuning) of the resonant shunt tanks printed on each
	// QWP face. It sets the surface's band-pass rolloff: larger values
	// narrow the usable band.
	QWPSelectivity float64

	// BFSLayers is the number of varactor-loaded phase-shifter layers.
	// The paper's optimized design uses two; the naive scaled-down
	// 10 GHz design uses four.
	BFSLayers int
	// BFSLayerThickness is the dielectric thickness per BFS layer
	// (BoM accounting).
	BFSLayerThickness float64
	// BFSPath is the electrical path length (meters) of the meandered
	// BFS pattern per layer (the Fig. 6 BFS traces are 23.2 mm long in a
	// 40 mm cell).
	BFSPath float64
	// BFSConcentration multiplies bulk dielectric attenuation along the
	// loaded BFS path (loading concentrates fields further).
	BFSConcentration float64
	// LoadPitch is the varactor loading pitch along the synthetic line,
	// meters. Smaller pitch = heavier loading = more phase swing and
	// more loss. Calibrate with CalibrateLoadPitch.
	LoadPitch float64
	// BFSSelectivity is the normalized susceptance scale of the
	// varactor-loaded tanks on the BFS faces. Because the tank
	// capacitance is the diode's C(V), bias detunes the tank: low bias
	// (large C) pulls the efficiency peak down in frequency and costs
	// insertion loss at the carrier — the behaviour of Fig. 11.
	BFSSelectivity float64
	// BFSResonanceBias is the bias voltage (volts) at which the BFS face
	// tanks resonate exactly at CenterHz.
	BFSResonanceBias float64

	// BiasOffsetX is the effective bias error (volts) of the X axis
	// relative to Y, modelling the fabrication and assembly error the
	// paper compensates by extending the sweep range to 30 V.
	BiasOffsetX float64

	// UnitSize is the unit-cell edge, meters (32 mm QWP / 40 mm BFS in
	// Fig. 6; a single figure is used for BoM accounting).
	UnitSize float64
	// UnitsX, UnitsY are the lattice dimensions.
	UnitsX, UnitsY int
	// VaractorsPerUnit is the diode count per functional unit (4 in the
	// prototype: two per axis).
	VaractorsPerUnit int
	// VaractorUnitCost is the per-diode cost in USD (~$0.50).
	VaractorUnitCost float64

	// MinBiasV, MaxBiasV delimit the usable control range (0–30 V with
	// the paper's Tektronix 2230G supply).
	MinBiasV, MaxBiasV float64
}

// Validate reports an error when the design cannot be built.
func (d Design) Validate() error {
	if err := d.Substrate.Validate(); err != nil {
		return fmt.Errorf("metasurface: %s: %w", d.Name, err)
	}
	if err := d.Diode.Validate(); err != nil {
		return fmt.Errorf("metasurface: %s: %w", d.Name, err)
	}
	switch {
	case d.CenterHz <= 0:
		return fmt.Errorf("metasurface: %s: non-positive center frequency", d.Name)
	case d.PatternIndex < 1:
		return fmt.Errorf("metasurface: %s: pattern index < 1", d.Name)
	case d.QWPLayerThickness <= 0:
		return fmt.Errorf("metasurface: %s: non-positive QWP thickness", d.Name)
	case d.QWPPath <= 0:
		return fmt.Errorf("metasurface: %s: non-positive QWP path", d.Name)
	case d.QWPConcentration < 1:
		return fmt.Errorf("metasurface: %s: QWP concentration < 1", d.Name)
	case math.Abs(d.QWPMismatch) >= 0.5:
		return fmt.Errorf("metasurface: %s: QWP mismatch |%g| ≥ 0.5", d.Name, d.QWPMismatch)
	case d.QWPSelectivity < 0:
		return fmt.Errorf("metasurface: %s: negative QWP selectivity", d.Name)
	case d.BFSSelectivity < 0:
		return fmt.Errorf("metasurface: %s: negative BFS selectivity", d.Name)
	case d.BFSSelectivity > 0 && d.BFSResonanceBias <= 0:
		return fmt.Errorf("metasurface: %s: BFS tanks need a positive resonance bias", d.Name)
	case d.BFSLayers < 1:
		return fmt.Errorf("metasurface: %s: needs ≥1 BFS layer", d.Name)
	case d.BFSLayerThickness <= 0:
		return fmt.Errorf("metasurface: %s: non-positive BFS thickness", d.Name)
	case d.BFSPath <= 0:
		return fmt.Errorf("metasurface: %s: non-positive BFS path", d.Name)
	case d.BFSConcentration < 1:
		return fmt.Errorf("metasurface: %s: BFS concentration < 1", d.Name)
	case d.LoadPitch <= 0:
		return fmt.Errorf("metasurface: %s: non-positive load pitch", d.Name)
	case d.UnitSize <= 0 || d.UnitsX < 1 || d.UnitsY < 1:
		return fmt.Errorf("metasurface: %s: bad lattice geometry", d.Name)
	case d.VaractorsPerUnit < 1:
		return fmt.Errorf("metasurface: %s: needs ≥1 varactor per unit", d.Name)
	case d.MinBiasV < 0 || d.MaxBiasV <= d.MinBiasV:
		return fmt.Errorf("metasurface: %s: invalid bias range [%g,%g]", d.Name, d.MinBiasV, d.MaxBiasV)
	}
	return nil
}

// Units returns the total functional unit count.
func (d Design) Units() int { return d.UnitsX * d.UnitsY }

// Area returns the surface area in m².
func (d Design) Area() float64 {
	return float64(d.UnitsX) * float64(d.UnitsY) * d.UnitSize * d.UnitSize
}

// VaractorCount returns the total diode count (720 for the prototype).
func (d Design) VaractorCount() int { return d.Units() * d.VaractorsPerUnit }

// CopperLayers returns the total patterned copper layer count: two faces
// per QWP board plus one per BFS layer.
func (d Design) CopperLayers() int { return 4 + d.BFSLayers }

// BillOfMaterials returns the cost breakdown of the design, reproducing
// the paper's §4 accounting.
func (d Design) BillOfMaterials() materials.BillOfMaterials {
	stack := materials.Stackup{
		Substrate:      d.Substrate,
		CopperLayers:   d.CopperLayers(),
		LayerThickness: (2*d.QWPLayerThickness + float64(d.BFSLayers)*d.BFSLayerThickness) / float64(d.CopperLayers()),
		Area:           d.Area(),
	}
	return materials.BillOfMaterials{
		PCB:             stack.BoardCost(),
		Varactors:       float64(d.VaractorCount()) * d.VaractorUnitCost,
		ControlOverhead: 0.05 * stack.BoardCost(), // connectors, bias tees
	}
}

// OptimizedFR4Design returns the paper's contribution: the cheap FR4 stack
// with two thin phase-shifter layers, tuned for centerHz (2.44 GHz for the
// prototype; §3.2 also reports a 900 MHz rescale).
//
// The prototype lattice is 480×480 mm with 180 functional units; the
// bias-asymmetry term reproduces the nonzero Table 1 diagonal.
func OptimizedFR4Design(centerHz float64) Design {
	return optimizedFR4Geometry(centerHz).calibrated()
}

// optimizedFR4Geometry is OptimizedFR4Design before calibration. Every
// prefab constructor starts from it and calibrates exactly once:
// CalibrateLoadPitch never reads the input LoadPitch, so a chain of
// calibrated constructors would only repeat work.
func optimizedFR4Geometry(centerHz float64) Design {
	scale := units.ISMBandCenter / centerHz // geometric scaling for other bands
	return Design{
		Name:              fmt.Sprintf("LLAMA optimized FR4 @%.2f GHz", centerHz/1e9),
		Substrate:         materials.FR4,
		Diode:             varactor.SMV1233,
		CenterHz:          centerHz,
		PatternIndex:      2.5,
		QWPLayerThickness: 1.0e-3 * scale,
		QWPPath:           0.020 * scale,
		QWPConcentration:  2.5,
		QWPMismatch:       0.08,
		QWPSelectivity:    7,
		BFSLayers:         2,
		BFSLayerThickness: 0.8e-3 * scale,
		BFSPath:           0.0232 * scale, // Fig. 6 BFS trace length
		BFSConcentration:  2.5,
		LoadPitch:         80e-3 * scale, // placeholder: calibrated sets it
		BFSSelectivity:    0.35,
		BFSResonanceBias:  8,
		BiasOffsetX:       1.1,
		UnitSize:          0.0358 * scale, // blended 32/40 mm unit pitch
		UnitsX:            12,
		UnitsY:            15,
		VaractorsPerUnit:  4,
		VaractorUnitCost:  0.50,
		MinBiasV:          0,
		MaxBiasV:          30,
	}
}

// calibrated returns d with LoadPitch set for the paper's Table 1 corner:
// a 97° swing between the X axis's effective bias at 2 V and 15 V.
func (d Design) calibrated() Design {
	d.LoadPitch = d.CalibrateLoadPitch(units.Radians(97), d.effectiveMinBias(2), 15)
	return d
}

// effectiveMinBias returns the lowest bias the X axis can actually see
// when the controller programs vNominal: the fabrication bias offset
// shifts the axis (§3.3 explains why the sweep range extends to 30 V).
func (d Design) effectiveMinBias(vNominal float64) float64 {
	v := vNominal - d.BiasOffsetX
	if v < 0 {
		v = 0
	}
	return v
}

// NaiveFR4Design returns the straw-man the paper measures in Fig. 9: the
// multi-layer geometry of the 10 GHz Rogers design [36] scaled to 2.4 GHz
// but fabricated on FR4. Twice the phase-shifter layers at three times the
// thickness make the 0.02 loss tangent ruinous.
func NaiveFR4Design(centerHz float64) Design {
	return naiveFR4Geometry(centerHz).calibrated()
}

// naiveFR4Geometry is NaiveFR4Design before calibration.
func naiveFR4Geometry(centerHz float64) Design {
	d := optimizedFR4Geometry(centerHz)
	d.Name = fmt.Sprintf("naive FR4 @%.2f GHz", centerHz/1e9)
	d.QWPLayerThickness *= 3
	d.QWPPath *= 2
	d.QWPConcentration = 8
	d.BFSLayers = 4
	d.BFSLayerThickness *= 3
	d.BFSPath *= 1.7
	d.BFSConcentration = 14
	return d
}

// Rogers5880Design returns the reference design of Fig. 8: the same
// multi-layer geometry as NaiveFR4Design but on low-loss Rogers 5880,
// reproducing the high transmission efficiency of [36].
func Rogers5880Design(centerHz float64) Design {
	d := naiveFR4Geometry(centerHz)
	d.Name = fmt.Sprintf("Rogers 5880 @%.2f GHz", centerHz/1e9)
	d.Substrate = materials.Rogers5880
	return d.calibrated()
}

const (
	// calibrationBiasSteps is the number of equal bias increments the
	// calibration swing walks from vLo to vHi to unwrap the phase.
	calibrationBiasSteps = 64
	// calibrationMaxSteps bounds the pitch bisection. The geometric
	// bisection of [0.2 mm, 20 m] reaches its fixed point well before.
	calibrationMaxSteps = 80
)

// CalibrateLoadPitch searches for the varactor loading pitch that makes
// the BFS transmission-phase swing between bias vLo and vHi equal target
// radians at the design center frequency. The paper's Table 1 corner
// (48.7° rotation = 97.4° differential phase between 2 V and 15 V) is the
// calibration point. The swing is measured on the full per-axis network
// (loaded line plus varactor tanks) with phase unwrapped by stepping the
// bias, so tank contributions are included. The returned pitch is found
// by bisection; the search is monotone because heavier loading (smaller
// pitch) always increases phase swing. The input LoadPitch is never read.
// The bracket runs from 0.2 mm (heaviest loading) to 20 m: when even
// 0.2 mm falls short the pitch is 0.2 mm, and when even 20 m overshoots
// (the face tanks alone swing further, as in the four-layer designs) the
// bisection saturates at 20 m.
//
// The bias-only terms — C(v) and the face-tank two-port at each of the
// 65 bias samples — are computed once per call, so each bisection step
// evaluates only the pitch-dependent line. The bisection stops on the
// first step that leaves its bracket unchanged: a step is a pure
// function of the bracket, so every later step would repeat it.
func (d Design) CalibrateLoadPitch(target float64, vLo, vHi float64) float64 {
	pitch, _ := d.calibrateLoadPitch(target, vLo, vHi)
	return pitch
}

// calibrateLoadPitch is CalibrateLoadPitch, also reporting the number of
// bisection steps it ran (0 when even the heaviest loading falls short).
func (d Design) calibrateLoadPitch(target float64, vLo, vHi float64) (pitch float64, steps int) {
	if target <= 0 {
		panic("metasurface: non-positive calibration target")
	}
	f := d.CenterHz
	var cv [calibrationBiasSteps + 1]float64
	var tank [calibrationBiasSteps + 1]twoport.ABCD
	for i := range cv {
		v := vLo
		if i > 0 {
			v = vLo + (vHi-vLo)*float64(i)/calibrationBiasSteps
		}
		cv[i] = d.Diode.Capacitance(v)
		tank[i] = d.bfsTank(f, v)
	}
	// swing is the full-network transmission phase change as the bias
	// steps from vLo to vHi: each wrapped step difference is accumulated,
	// which unwraps the total even when it exceeds 2π.
	swing := func(pitch float64) float64 {
		trial := d
		trial.LoadPitch = pitch
		phaseAt := func(i int) float64 {
			return trial.bfsStackAt(f, cv[i], tank[i]).ToS(units.Z0FreeSpace).TransmissionPhase()
		}
		total := 0.0
		prev := phaseAt(0)
		for i := 1; i <= calibrationBiasSteps; i++ {
			cur := phaseAt(i)
			total += units.NormalizeAngle(cur - prev)
			prev = cur
		}
		return math.Abs(total)
	}
	// Bracket: huge pitch = negligible loading; tiny pitch = heavy.
	loPitch, hiPitch := 0.2e-3, 20.0
	if swing(loPitch) < target {
		// Even the heaviest loading cannot reach the target; return the
		// heaviest valid pitch rather than failing, so exotic designs
		// degrade gracefully.
		return loPitch, 0
	}
	for steps < calibrationMaxSteps {
		steps++
		mid := math.Sqrt(loPitch * hiPitch) // geometric bisection
		lo, hi := loPitch, hiPitch
		if swing(mid) > target {
			lo = mid
		} else {
			hi = mid
		}
		if lo == loPitch && hi == hiPitch {
			break // fixed point
		}
		loPitch, hiPitch = lo, hi
	}
	return math.Sqrt(loPitch * hiPitch), steps
}
