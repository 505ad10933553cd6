package materials

// Code only this package's tests call. No figure, command or service
// reaches it, so it is compiled into the tests alone.

import (
	"fmt"
	"math"

	"github.com/llama-surface/llama/internal/units"
)

var // Copper is standard PCB metallization.
Copper = Conductor{Name: "copper", Conductivity: 5.8e7}

// WavelengthIn returns the wavelength in the dielectric at frequency f:
// λ0/√εr.
func (d Dielectric) WavelengthIn(f float64) float64 {
	return units.Wavelength(f) / math.Sqrt(d.EpsilonR)
}

// IntrinsicImpedance returns the wave impedance η = η0/√εr of the bulk
// dielectric.
func (d Dielectric) IntrinsicImpedance() float64 {
	return units.Z0FreeSpace / math.Sqrt(d.EpsilonR)
}

// PropagationConstant returns the complex γ = α + jβ of the bulk
// dielectric at frequency f.
func (d Dielectric) PropagationConstant(f float64) complex128 {
	return complex(d.DielectricAttenuation(f), d.PhaseConstant(f))
}

// ConductorAttenuation returns the attenuation constant α_c in nepers per
// meter of a quasi-TEM line with characteristic impedance z0 and effective
// trace width w meters:
//
//	α_c = Rs / (z0 · w)
//
// (Pozar's microstrip conductor-loss formula.) It panics on non-positive
// z0 or w.
func (c Conductor) ConductorAttenuation(f, z0, w float64) float64 {
	if z0 <= 0 || w <= 0 {
		panic("materials: conductor attenuation needs positive z0 and width")
	}
	return c.SurfaceResistance(f) / (z0 * w)
}

// Validate reports an error for unbuildable stackups.
func (s Stackup) Validate() error {
	if err := s.Substrate.Validate(); err != nil {
		return err
	}
	if s.CopperLayers < 1 {
		return fmt.Errorf("materials: stackup needs ≥1 copper layer, have %d", s.CopperLayers)
	}
	if s.LayerThickness <= 0 {
		return fmt.Errorf("materials: non-positive layer thickness %g", s.LayerThickness)
	}
	if s.Area <= 0 {
		return fmt.Errorf("materials: non-positive area %g", s.Area)
	}
	return nil
}

// BulkLossDB returns the one-way dielectric loss through the whole stack
// at frequency f, in dB.
func (s Stackup) BulkLossDB(f float64) float64 {
	return s.Substrate.DielectricLossDB(f, s.TotalDielectricThickness())
}

// Conductor describes a metallization layer.
type Conductor struct {
	// Name identifies the metal.
	Name string
	// Conductivity in S/m.
	Conductivity float64
}

// DielectricLossDB returns the one-way bulk dielectric loss in dB (≥ 0) of
// a slab of thickness t meters at frequency f.
func (d Dielectric) DielectricLossDB(f, t float64) float64 {
	if t < 0 {
		panic("materials: negative thickness")
	}
	// dB = 20·log10(e) · α · l  =  8.686 · α · l
	return 20 * math.Log10(math.E) * d.DielectricAttenuation(f) * t
}

// SurfaceResistance returns Rs = 1/(σ·δs) in ohms per square at frequency
// f, the quantity that sets conductor loss in printed patterns.
func (c Conductor) SurfaceResistance(f float64) float64 {
	return 1 / (c.Conductivity * c.SkinDepth(f))
}

// TotalDielectricThickness returns the summed dielectric thickness.
func (s Stackup) TotalDielectricThickness() float64 {
	// n copper layers sandwich n−1 dielectric layers in a single
	// laminated board; a 1-layer "stackup" is just a carrier.
	n := s.CopperLayers - 1
	if n < 1 {
		n = 1
	}
	return float64(n) * s.LayerThickness
}

// SkinDepth returns the conductor's skin depth in meters at frequency f.
func (c Conductor) SkinDepth(f float64) float64 {
	if f <= 0 {
		panic("materials: non-positive frequency")
	}
	mu0 := 4 * math.Pi * 1e-7
	return 1 / math.Sqrt(math.Pi*f*mu0*c.Conductivity)
}
