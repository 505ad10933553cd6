package units

// Code only this package's tests call. No figure, command or service
// reaches it, so it is compiled into the tests alone.

import (
	"math"
)

// MilliwattsToDBm converts milliwatts to dBm.
func MilliwattsToDBm(mw float64) float64 { return WattsToDBm(mw * 1e-3) }

// DBmToMilliwatts converts dBm to milliwatts.
func DBmToMilliwatts(dbm float64) float64 { return DBmToWatts(dbm) * 1e3 }

// FieldRatioToDB converts a field (voltage/current) ratio to dB using the
// 20·log10 convention.
func FieldRatioToDB(ratio float64) float64 {
	if ratio <= 0 {
		return math.Inf(-1)
	}
	return 20 * math.Log10(ratio)
}

// Frequency returns the frequency in hertz for a free-space wavelength in
// meters. It panics if lambda <= 0.
func Frequency(lambda float64) float64 {
	if lambda <= 0 {
		panic("units: non-positive wavelength")
	}
	return C / lambda
}

// NormalizeAngleDeg wraps an angle in degrees into (-180, 180].
func NormalizeAngleDeg(deg float64) float64 {
	return Degrees(NormalizeAngle(Radians(deg)))
}

// ThermalNoiseDBm returns kTB noise power in dBm for bandwidth bw (Hz).
func ThermalNoiseDBm(bw float64) float64 {
	return WattsToDBm(ThermalNoiseWatts(bw))
}

// FriisPathGain returns the (dimensionless, <1) free-space path gain
// (λ/4πd)² between isotropic antennas.
func FriisPathGain(f, d float64) float64 {
	return FriisReceivedPower(1, 1, 1, f, d)
}

// ShannonCapacity returns the Shannon capacity in bit/s for bandwidth bw
// (Hz) and linear SNR. Negative SNR is clamped to zero capacity.
func ShannonCapacity(bw, snr float64) float64 {
	if snr <= 0 {
		return 0
	}
	return bw * math.Log2(1+snr)
}

// FriisReceivedPower returns the received power (watts) of a free-space
// link via the Friis transmission equation.
//
//	Pr = Pt · Gt · Gr · (λ / 4πd)²
//
// pt is transmit power in watts, gt/gr are linear antenna gains, f is the
// carrier in Hz and d the distance in meters. It panics on non-positive d,
// because a zero-length path has no defined far field.
func FriisReceivedPower(pt, gt, gr, f, d float64) float64 {
	if d <= 0 {
		panic("units: non-positive link distance")
	}
	lambda := Wavelength(f)
	factor := lambda / (4 * math.Pi * d)
	return pt * gt * gr * factor * factor
}

// ApproxEqual reports whether a and b are equal within tol (absolute).
func ApproxEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }
