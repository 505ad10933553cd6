// Package antenna models the endpoint antennas of a LLAMA deployment.
//
// The paper's core premise is that low-cost IoT devices carry one cheap,
// linearly polarized antenna, so a relative rotation between endpoints
// costs 10–15 dB (Figs. 1–2). The model captures the three properties the
// evaluation depends on: boresight gain, directional pattern (the Alfa
// 10 dBi patch vs the 6 dBi omni of §5.1.2), and cross-polarization
// discrimination (XPD) — the leakage that keeps a fully mismatched link
// finite instead of perfectly nulled.
package antenna

import (
	"fmt"
	"math"

	"github.com/llama-surface/llama/internal/jones"
	"github.com/llama-surface/llama/internal/units"
)

// Pattern describes the azimuthal directivity class of an antenna.
type Pattern int

const (
	// Omnidirectional antennas have no azimuthal selectivity.
	Omnidirectional Pattern = iota
	// Directional antennas concentrate gain in a Gaussian main lobe.
	Directional
)

// String implements fmt.Stringer.
func (p Pattern) String() string {
	if p == Directional {
		return "directional"
	}
	return "omnidirectional"
}

// Model describes an antenna type.
type Model struct {
	// Name identifies the antenna in reports.
	Name string
	// GainDBi is the boresight gain.
	GainDBi float64
	// Pattern is the directivity class.
	Pattern Pattern
	// BeamwidthDeg is the −3 dB full beamwidth of the main lobe
	// (Directional only).
	BeamwidthDeg float64
	// XPDdB is the cross-polarization discrimination: how many dB below
	// the co-polarized response the orthogonal leakage sits. Cheap IoT
	// antennas have poor (low) XPD; lab-grade antennas are cleaner.
	XPDdB float64
	// LeakPhaseRad is the phase of the cross-polarized leakage term,
	// a fixed property of the element geometry.
	LeakPhaseRad float64
	// Circular marks circularly polarized antennas (e.g. GPS patches);
	// those trade a flat 3 dB for orientation independence (§2).
	Circular bool
}

// Standard endpoint antennas used across the paper's experiments.
var (
	// DirectionalPatch is the Alfa APA-M25 style 10 dBi panel [6] used
	// in the controlled USRP experiments.
	DirectionalPatch = Model{
		Name: "10 dBi directional patch", GainDBi: 10, Pattern: Directional,
		BeamwidthDeg: 60, XPDdB: 22, LeakPhaseRad: 0.4,
	}
	// OmniWiFi is the Highfine 6 dBi indoor omni [1].
	OmniWiFi = Model{
		Name: "6 dBi omni", GainDBi: 6, Pattern: Omnidirectional,
		XPDdB: 20, LeakPhaseRad: 1.1,
	}
	// HalfWaveDipole is a generic AP antenna.
	HalfWaveDipole = Model{
		Name: "half-wave dipole", GainDBi: 2.15, Pattern: Omnidirectional,
		XPDdB: 20, LeakPhaseRad: 0.8,
	}
	// ESP8266PCB is the cheap meandered PCB trace on an ESP8266 Arduino
	// board [11]: low gain, poor polarization purity.
	ESP8266PCB = Model{
		Name: "ESP8266 PCB trace", GainDBi: 0, Pattern: Omnidirectional,
		XPDdB: 16, LeakPhaseRad: 2.0,
	}
	// WearableBLE is the MetaMotionR-style wearable chip antenna [23].
	WearableBLE = Model{
		Name: "BLE wearable chip", GainDBi: -2, Pattern: Omnidirectional,
		XPDdB: 14, LeakPhaseRad: 2.6,
	}
	// CircularPatch is a circularly polarized reference antenna (the
	// mitigation higher-end devices use, §2).
	CircularPatch = Model{
		Name: "circular patch", GainDBi: 5, Pattern: Directional,
		BeamwidthDeg: 75, XPDdB: 25, Circular: true,
	}
)

// Validate reports an error for unphysical antenna parameters.
func (m Model) Validate() error {
	switch {
	case m.GainDBi < -20 || m.GainDBi > 30:
		return fmt.Errorf("antenna: %s: implausible gain %g dBi", m.Name, m.GainDBi)
	case m.Pattern == Directional && !(m.BeamwidthDeg > 0 && m.BeamwidthDeg <= 360):
		return fmt.Errorf("antenna: %s: directional antenna needs a beamwidth", m.Name)
	case m.XPDdB < 0:
		return fmt.Errorf("antenna: %s: negative XPD", m.Name)
	}
	return nil
}

// Gain returns the linear power gain at offBoresight radians from the main
// lobe axis. Omnidirectional antennas return the full boresight gain at
// every azimuth; directional antennas follow a Gaussian main-lobe model
// with a −25 dB side-lobe floor.
func (m Model) Gain(offBoresight float64) float64 {
	peak := units.DBToLinear(m.GainDBi)
	if m.Pattern == Omnidirectional {
		return peak
	}
	// Gaussian lobe: −3 dB at half the beamwidth.
	half := units.Radians(m.BeamwidthDeg) / 2
	x := units.NormalizeAngle(offBoresight)
	drop := 3 * (x / half) * (x / half) // dB down from peak
	if drop > 25 {
		drop = 25 // side-lobe floor
	}
	return peak * units.DBToLinear(-drop)
}

// PolarizationState returns the Jones vector the antenna radiates (or,
// by reciprocity, receives best) when its element is rotated by psi
// radians from the global X axis. Linear antennas radiate mostly along
// their element with an XPD-limited orthogonal leak; circular antennas
// radiate RHC regardless of psi.
func (m Model) PolarizationState(psi float64) jones.Vector {
	if m.Circular {
		return jones.CircularRight()
	}
	leak := units.DBToFieldRatio(-m.XPDdB)
	co := jones.LinearAt(psi)
	// The orthogonal leak is in quadrature-ish phase set by the element.
	cross := jones.LinearAt(psi + math.Pi/2)
	lv := cross.Scale(complex(leak*math.Cos(m.LeakPhaseRad), leak*math.Sin(m.LeakPhaseRad)))
	v, ok := co.Add(lv).Normalize()
	if !ok {
		return co
	}
	return v
}

// String implements fmt.Stringer.
func (m Model) String() string {
	return fmt.Sprintf("%s (%.1f dBi, %s, XPD %.0f dB)", m.Name, m.GainDBi, m.Pattern, m.XPDdB)
}
