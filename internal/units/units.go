// Package units provides the unit conversions and physical constants used
// throughout the LLAMA simulator.
//
// Internally the simulator works in SI units (watts, hertz, meters, seconds).
// Decibel quantities appear only at API boundaries — experiment outputs,
// telemetry reports, and instrument readbacks — mirroring how the paper
// reports results (dBm received power, dB efficiency).
package units

import "math"

// Physical constants.
const (
	// C is the speed of light in vacuum, m/s.
	C = 299792458.0
	// Boltzmann is the Boltzmann constant, J/K.
	Boltzmann = 1.380649e-23
	// RoomTemperatureK is the reference noise temperature, kelvin.
	RoomTemperatureK = 290.0
	// Z0FreeSpace is the impedance of free space, ohms.
	Z0FreeSpace = 376.730313668
)

// ISM band boundaries and LLAMA defaults (Hz). The paper targets the
// 2.4 GHz ISM band and operates the USRP link at 2.44 GHz by default.
const (
	ISMBandLow    = 2.400e9
	ISMBandHigh   = 2.500e9
	ISMBandCenter = 2.450e9
	// DefaultCarrierHz is the default USRP center frequency used in the
	// paper's controlled experiments (§4).
	DefaultCarrierHz = 2.440e9
	// RFIDBandCenter is the 900 MHz band center the paper reports the
	// rescaled design for (§3.2).
	RFIDBandCenter = 0.915e9
)

// DBToLinear converts a power ratio expressed in dB to a linear ratio.
func DBToLinear(db float64) float64 { return math.Pow(10, db/10) }

// LinearToDB converts a linear power ratio to dB. A non-positive ratio
// returns -Inf, matching the mathematical limit.
func LinearToDB(ratio float64) float64 {
	if ratio <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(ratio)
}

// DBmToWatts converts a power level in dBm to watts.
func DBmToWatts(dbm float64) float64 { return math.Pow(10, dbm/10) * 1e-3 }

// WattsToDBm converts a power level in watts to dBm. Non-positive power
// returns -Inf.
func WattsToDBm(w float64) float64 {
	if w <= 0 {
		return math.Inf(-1)
	}
	return 10*math.Log10(w) + 30
}

// DBToFieldRatio converts dB to a field (voltage) ratio via 10^(db/20).
func DBToFieldRatio(db float64) float64 { return math.Pow(10, db/20) }

// Wavelength returns the free-space wavelength in meters for frequency f in
// hertz. It panics if f <= 0 because no physical carrier has such a
// frequency, and silently producing ±Inf would corrupt link-budget math.
func Wavelength(f float64) float64 {
	if f <= 0 {
		panic("units: non-positive frequency")
	}
	return C / f
}

// AngularFrequency returns ω = 2πf.
func AngularFrequency(f float64) float64 { return 2 * math.Pi * f }

// WaveNumber returns the free-space wavenumber k = 2π/λ for frequency f.
func WaveNumber(f float64) float64 { return 2 * math.Pi / Wavelength(f) }

// Degrees converts radians to degrees.
func Degrees(rad float64) float64 { return rad * 180 / math.Pi }

// Radians converts degrees to radians.
func Radians(deg float64) float64 { return deg * math.Pi / 180 }

// NormalizeAngle wraps an angle in radians into (-π, π].
func NormalizeAngle(rad float64) float64 {
	for rad > math.Pi {
		rad -= 2 * math.Pi
	}
	for rad <= -math.Pi {
		rad += 2 * math.Pi
	}
	return rad
}

// ThermalNoiseWatts returns kTB thermal noise power for bandwidth bw (Hz) at
// room temperature.
func ThermalNoiseWatts(bw float64) float64 {
	return Boltzmann * RoomTemperatureK * bw
}

// SpectralEfficiency returns the Shannon spectral efficiency (bit/s/Hz) for
// a linear SNR. The paper's Figs. 18/19/22 report this quantity (labelled
// "Mbps/Hz" there).
func SpectralEfficiency(snr float64) float64 {
	if snr <= 0 {
		return 0
	}
	return math.Log2(1 + snr)
}

// FriisRangeExtension returns the factor by which the maximum link distance
// grows when the link budget improves by gainDB, per the Friis equation
// (distance scales as the square root of the power ratio). The paper quotes
// 15 dB → 5.6×.
func FriisRangeExtension(gainDB float64) float64 {
	return math.Sqrt(DBToLinear(gainDB))
}

// Clamp limits v to [lo, hi]. It panics if lo > hi.
func Clamp(v, lo, hi float64) float64 {
	if lo > hi {
		panic("units: clamp with lo > hi")
	}
	switch {
	case v < lo:
		return lo
	case v > hi:
		return hi
	default:
		return v
	}
}
