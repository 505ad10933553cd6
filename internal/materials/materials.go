// Package materials models the PCB dielectric substrates and conductors the
// LLAMA metasurface can be built from, and the per-unit-area cost model that
// motivates the paper's FR4 design.
//
// The paper's central materials argument: Rogers 5880 (loss tangent 0.0009)
// gives excellent transmission efficiency but is cost-prohibitive at wall
// scale, while FR4 (loss tangent 0.02) is ~20× lossier per unit thickness —
// so the structure, not the substrate, must be optimized (fewer, thinner
// phase-shifter layers).
package materials

import (
	"fmt"
	"math"

	"github.com/llama-surface/llama/internal/units"
)

// Dielectric describes a PCB substrate material.
type Dielectric struct {
	// Name identifies the material in reports.
	Name string
	// EpsilonR is the relative permittivity (real part).
	EpsilonR float64
	// LossTangent is tan δ, the ratio of the imaginary to real part of
	// the permittivity; dielectric loss grows linearly with it.
	LossTangent float64
	// CostPerM2PerLayer is the board cost in USD per square meter per
	// copper-clad layer, an aggregate of laminate + fabrication cost used
	// by the BoM model.
	CostPerM2PerLayer float64
}

// Standard materials. FR4 and Rogers 5880 parameters follow the datasheets
// the paper cites ([13], [30]); costs are the scale used for the paper's
// $540-for-all-PCB-layers prototype figure.
var (
	// FR4 is the cheap glass-epoxy laminate LLAMA uses.
	FR4 = Dielectric{Name: "FR4", EpsilonR: 4.4, LossTangent: 0.020, CostPerM2PerLayer: 150}
	// Rogers5880 is the high-performance PTFE laminate used by the
	// 10 GHz design in [36] that LLAMA's design replaces.
	Rogers5880 = Dielectric{Name: "Rogers 5880", EpsilonR: 2.20, LossTangent: 0.0009, CostPerM2PerLayer: 3200}
)

// Validate reports an error when the dielectric parameters are unphysical.
func (d Dielectric) Validate() error {
	if d.EpsilonR < 1 {
		return fmt.Errorf("materials: %s: εr %.3f < 1", d.Name, d.EpsilonR)
	}
	if d.LossTangent < 0 {
		return fmt.Errorf("materials: %s: negative loss tangent %g", d.Name, d.LossTangent)
	}
	if d.CostPerM2PerLayer < 0 {
		return fmt.Errorf("materials: %s: negative cost", d.Name)
	}
	return nil
}

// PhaseConstant returns β = ω√(με) = k0·√εr in rad/m at frequency f.
func (d Dielectric) PhaseConstant(f float64) float64 {
	return units.WaveNumber(f) * math.Sqrt(d.EpsilonR)
}

// DielectricAttenuation returns the dielectric attenuation constant α_d in
// nepers per meter for a wave travelling through the bulk material:
//
//	α_d = (k0·√εr·tanδ) / 2
//
// This is the small-loss approximation (tanδ ≪ 1), the regime of both FR4
// and Rogers laminates.
func (d Dielectric) DielectricAttenuation(f float64) float64 {
	return d.PhaseConstant(f) * d.LossTangent / 2
}

// String implements fmt.Stringer.
func (d Dielectric) String() string {
	return fmt.Sprintf("%s (εr=%.2f, tanδ=%.4f)", d.Name, d.EpsilonR, d.LossTangent)
}

// Stackup describes a laminated board: a substrate material, the number of
// patterned copper layers and each dielectric layer's thickness.
type Stackup struct {
	// Substrate is the dielectric between copper layers.
	Substrate Dielectric
	// CopperLayers is the number of patterned metal layers.
	CopperLayers int
	// LayerThickness is the dielectric thickness per layer, meters.
	LayerThickness float64
	// Area is the board area in m².
	Area float64
}

// BoardCost returns the PCB cost in USD for the stackup.
func (s Stackup) BoardCost() float64 {
	return s.Substrate.CostPerM2PerLayer * float64(s.CopperLayers) * s.Area
}

// BillOfMaterials aggregates the component costs of a surface build, used
// to reproduce the paper's §4 cost accounting ($540 PCB + varactors ≈ $900
// prototype, $5/unit).
type BillOfMaterials struct {
	// PCB is the laminate + fabrication cost in USD.
	PCB float64
	// Varactors is the total varactor diode cost in USD.
	Varactors float64
	// ControlOverhead is connectors, bias tees and assembly in USD.
	ControlOverhead float64
}

// Total returns the summed cost in USD.
func (b BillOfMaterials) Total() float64 { return b.PCB + b.Varactors + b.ControlOverhead }

// PerUnit returns the cost per functional unit for a surface with n units.
// It panics when n ≤ 0.
func (b BillOfMaterials) PerUnit(n int) float64 {
	if n <= 0 {
		panic("materials: per-unit cost needs positive unit count")
	}
	return b.Total() / float64(n)
}

// String implements fmt.Stringer.
func (b BillOfMaterials) String() string {
	return fmt.Sprintf("PCB $%.0f + varactors $%.0f + control $%.0f = $%.0f",
		b.PCB, b.Varactors, b.ControlOverhead, b.Total())
}
