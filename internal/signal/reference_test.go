package signal

// Code only this package's tests call. No figure, command or service
// reaches it, so it is compiled into the tests alone.

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
)

// USRPN210FrontEnd returns impairments representative of the paper's lab
// receiver: small CFO (GPSDO-free TCXO), mild phase noise, 14-bit ADC.
func USRPN210FrontEnd(sampleRate float64) *FrontEnd {
	return &FrontEnd{
		CFOHz:           180, // ~0.07 ppm at 2.44 GHz
		SampleRateHz:    sampleRate,
		PhaseNoiseStd:   0.002,
		IQGainImbalance: 0.01,
		IQPhaseSkewRad:  0.005,
		DCOffset:        complex(2e-4, -1e-4),
		QuantBits:       14,
		FullScale:       1.0,
	}
}

// ESP8266FrontEnd returns the much rougher chain of a $3 IoT SoC.
func ESP8266FrontEnd(sampleRate float64) *FrontEnd {
	return &FrontEnd{
		CFOHz:           12e3, // ~5 ppm crystal
		SampleRateHz:    sampleRate,
		PhaseNoiseStd:   0.02,
		IQGainImbalance: 0.05,
		IQPhaseSkewRad:  0.03,
		DCOffset:        complex(3e-3, 2e-3),
		QuantBits:       10,
		FullScale:       1.0,
	}
}

// Apply distorts the block in place and returns it. Phase state persists
// across calls (the LO keeps drifting), so consecutive blocks are
// continuous like a real stream.
func (f *FrontEnd) Apply(buf []complex128, rng *rand.Rand) []complex128 {
	if err := f.Validate(); err != nil {
		panic(err)
	}
	cfoStep := 0.0
	if f.SampleRateHz > 0 {
		cfoStep = 2 * math.Pi * f.CFOHz / f.SampleRateHz
	}
	for i := range buf {
		x := buf[i]
		// LO rotation: CFO plus phase-noise walk.
		f.phase += cfoStep
		if f.phase > math.Pi {
			f.phase -= 2 * math.Pi
		}
		if f.PhaseNoiseStd > 0 && rng != nil {
			f.pnPhase += f.PhaseNoiseStd * rng.NormFloat64()
		}
		x *= cmplx.Rect(1, f.phase+f.pnPhase)
		// IQ imbalance: Q arm gain and quadrature skew (the skew mixes a
		// sine of the I arm into Q — the classic image-generating term).
		if f.IQGainImbalance != 0 || f.IQPhaseSkewRad != 0 {
			iArm := real(x)
			qArm := imag(x) * (1 + f.IQGainImbalance)
			qArm = qArm*math.Cos(f.IQPhaseSkewRad) + iArm*math.Sin(f.IQPhaseSkewRad)
			x = complex(iArm, qArm)
		}
		// LO leakage.
		x += f.DCOffset
		// ADC quantization.
		if f.QuantBits > 0 {
			x = complex(quantize(real(x), f.QuantBits, f.FullScale),
				quantize(imag(x), f.QuantBits, f.FullScale))
		}
		buf[i] = x
	}
	return buf
}

// NewRSSIEstimator returns an estimator; it panics for alpha outside (0,1].
func NewRSSIEstimator(alpha float64) *RSSIEstimator {
	if alpha <= 0 || alpha > 1 {
		panic("signal: RSSI alpha must be in (0,1]")
	}
	return &RSSIEstimator{Alpha: alpha}
}

// Update folds a block of samples into the estimate and returns the new
// smoothed power in watts.
func (r *RSSIEstimator) Update(buf []complex128) float64 {
	p := Power(buf)
	if !r.init {
		r.value = p
		r.init = true
		return r.value
	}
	r.value = r.Alpha*p + (1-r.Alpha)*r.value
	return r.value
}

// Value returns the current smoothed power in watts (0 before any update).
func (r *RSSIEstimator) Value() float64 { return r.value }

// Goertzel evaluates the DFT of buf at a single frequency binHz given the
// sample rate, returning the complex bin value normalized by the buffer
// length. It is the cheap way to track one tone (the receiver's 500 kHz
// carrier) without a full FFT.
func Goertzel(buf []complex128, binHz, sampleRateHz float64) complex128 {
	if sampleRateHz <= 0 {
		panic("signal: non-positive sample rate")
	}
	n := len(buf)
	if n == 0 {
		return 0
	}
	w := 2 * math.Pi * binHz / sampleRateHz
	e := cmplx.Rect(1, -w)
	var acc complex128
	ph := complex(1, 0)
	for _, x := range buf {
		acc += x * ph
		ph *= e
	}
	return acc / complex(float64(n), 0)
}

// RemoveDCOffset subtracts the block mean in place and returns buf.
func RemoveDCOffset(buf []complex128) []complex128 {
	dc := EstimateDCOffset(buf)
	for i := range buf {
		buf[i] -= dc
	}
	return buf
}

// EstimateCFO returns the frequency offset (Hz) of a tone-bearing block
// via the phase of the lag-1 autocorrelation — the standard single-lag
// estimator, unbiased for offsets below fs/2.
func EstimateCFO(buf []complex128, sampleRateHz float64) float64 {
	if len(buf) < 2 || sampleRateHz <= 0 {
		return 0
	}
	var acc complex128
	for i := 1; i < len(buf); i++ {
		acc += buf[i] * cmplx.Conj(buf[i-1])
	}
	return cmplx.Phase(acc) * sampleRateHz / (2 * math.Pi)
}

// IFFT computes the unnormalized-companion inverse FFT of buf in place
// (including the 1/N factor, so IFFT(FFT(x)) == x).
func IFFT(buf []complex128) {
	for i := range buf {
		buf[i] = cmplx.Conj(buf[i])
	}
	FFT(buf)
	n := complex(float64(len(buf)), 0)
	for i := range buf {
		buf[i] = cmplx.Conj(buf[i]) / n
	}
}

// BinFrequency converts an FFT bin index to hertz for an n-point
// transform at the given sample rate, mapping upper-half bins to negative
// frequencies.
func BinFrequency(bin, n int, sampleRateHz float64) float64 {
	if n <= 0 {
		panic("signal: non-positive FFT size")
	}
	if bin >= n/2 {
		bin -= n
	}
	return float64(bin) * sampleRateHz / float64(n)
}

// FrontEnd models the analog/digital imperfections of a real receiver
// chain — the reasons a measured RSSI differs from the channel's analytic
// power even before thermal noise. The zero value is a perfect front end.
//
// Applying the front end to a block is deterministic given the RNG
// stream, so experiments stay reproducible.
type FrontEnd struct {
	// CFOHz is the carrier frequency offset between transmitter and
	// receiver LOs (ppm-scale of the carrier on cheap radios).
	CFOHz float64
	// SampleRateHz is the ADC rate the offsets are normalized by.
	SampleRateHz float64
	// PhaseNoiseStd is the per-sample random-walk phase increment (rad):
	// the integrated LO phase noise.
	PhaseNoiseStd float64
	// IQGainImbalance is the fractional gain mismatch between I and Q
	// arms (ε in (1+ε) on the Q arm).
	IQGainImbalance float64
	// IQPhaseSkewRad is the quadrature error away from 90°.
	IQPhaseSkewRad float64
	// DCOffset adds a static complex bias (LO leakage).
	DCOffset complex128
	// QuantBits is the ADC resolution per rail; 0 disables quantization.
	QuantBits int
	// FullScale is the ADC full-scale amplitude for quantization.
	FullScale float64

	phase   float64 // CFO accumulator
	pnPhase float64 // phase-noise random walk
}

// Validate reports an error for unusable configurations.
func (f *FrontEnd) Validate() error {
	switch {
	case f.SampleRateHz < 0:
		return fmt.Errorf("signal: negative sample rate")
	case f.CFOHz != 0 && f.SampleRateHz <= 0:
		return fmt.Errorf("signal: CFO needs a sample rate")
	case math.Abs(f.CFOHz) > f.SampleRateHz/2 && f.SampleRateHz > 0:
		return fmt.Errorf("signal: CFO %g Hz beyond Nyquist", f.CFOHz)
	case f.PhaseNoiseStd < 0:
		return fmt.Errorf("signal: negative phase-noise std")
	case f.QuantBits < 0 || f.QuantBits > 24:
		return fmt.Errorf("signal: quantizer bits %d outside [0,24]", f.QuantBits)
	case f.QuantBits > 0 && f.FullScale <= 0:
		return fmt.Errorf("signal: quantizer needs a positive full scale")
	}
	return nil
}

// EstimateDCOffset returns the block mean — the standard DC estimator a
// receiver subtracts before power measurement.
func EstimateDCOffset(buf []complex128) complex128 {
	if len(buf) == 0 {
		return 0
	}
	var acc complex128
	for _, x := range buf {
		acc += x
	}
	return acc / complex(float64(len(buf)), 0)
}

// RSSIEstimator accumulates block power estimates with exponential
// smoothing, the way a cheap receiver's RSSI register behaves.
type RSSIEstimator struct {
	// Alpha is the smoothing factor in (0, 1]; 1 = no smoothing.
	Alpha float64

	value float64
	init  bool
}

// quantize rounds v to the nearest code of a mid-tread quantizer with the
// given bits and full scale, clipping at the rails.
func quantize(v float64, bits int, fullScale float64) float64 {
	levels := float64(int64(1) << uint(bits-1))
	step := fullScale / levels
	q := math.Round(v/step) * step
	if q > fullScale {
		q = fullScale
	}
	if q < -fullScale {
		q = -fullScale
	}
	return q
}

// Reset clears the accumulated LO phase state.
func (f *FrontEnd) Reset() { f.phase, f.pnPhase = 0, 0 }

// Reset clears the estimator state.
func (r *RSSIEstimator) Reset() { r.value, r.init = 0, false }
