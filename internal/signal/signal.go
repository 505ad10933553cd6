// Package signal provides the complex-baseband DSP used by the simulated
// receivers: tone generation (the paper's USRP transmitter sends a
// continuous cosine at a 500 kHz offset), AWGN, power estimation, and
// spectral analysis (a radix-2 FFT) for the sensing pipeline.
//
// All buffers are []complex128 at an explicit sample rate. Functions that
// stream samples accept caller-provided buffers so hot paths stay
// allocation-free (gopacket's SerializeBuffer discipline).
package signal

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"

	"github.com/llama-surface/llama/internal/units"
)

// ToneSource generates a complex exponential at a fixed baseband offset —
// the paper's "cosine signal over 500 KHz" as seen after downconversion.
type ToneSource struct {
	// OffsetHz is the tone's baseband offset (500 kHz in the paper).
	OffsetHz float64
	// SampleRateHz is the generation rate (1 MHz receiver sampling).
	SampleRateHz float64
	// Amplitude is the tone's field amplitude; power is Amplitude².
	Amplitude float64

	phase float64
}

// NewToneSource returns a tone source; it panics when the tone does not
// satisfy Nyquist at the given sample rate.
func NewToneSource(offsetHz, sampleRateHz, amplitude float64) *ToneSource {
	if sampleRateHz <= 0 {
		panic("signal: non-positive sample rate")
	}
	// A complex tone at exactly fs/2 is representable (it alternates
	// sign), which is precisely the paper's 500 kHz tone at 1 MHz
	// sampling; only beyond that does it alias.
	if math.Abs(offsetHz) > sampleRateHz/2 {
		panic(fmt.Sprintf("signal: tone %g Hz violates Nyquist at %g Hz", offsetHz, sampleRateHz))
	}
	return &ToneSource{OffsetHz: offsetHz, SampleRateHz: sampleRateHz, Amplitude: amplitude}
}

// Fill writes the next len(dst) samples into dst and returns dst.
func (t *ToneSource) Fill(dst []complex128) []complex128 {
	step := 2 * math.Pi * t.OffsetHz / t.SampleRateHz
	for i := range dst {
		dst[i] = cmplx.Rect(t.Amplitude, t.phase)
		t.phase += step
		if t.phase > math.Pi {
			t.phase -= 2 * math.Pi
		}
	}
	return dst
}

// Scale multiplies every sample by the complex channel response h in
// place and returns buf — applying a flat-fading channel to a block.
func Scale(buf []complex128, h complex128) []complex128 {
	for i := range buf {
		buf[i] *= h
	}
	return buf
}

// AddAWGN adds circular complex Gaussian noise with total power noiseW to
// each sample in place, using rng, and returns buf.
func AddAWGN(buf []complex128, noiseW float64, rng *rand.Rand) []complex128 {
	if noiseW < 0 {
		panic("signal: negative noise power")
	}
	sigma := math.Sqrt(noiseW / 2)
	for i := range buf {
		buf[i] += complex(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
	}
	return buf
}

// Power returns the mean sample power of buf; zero for an empty buffer.
func Power(buf []complex128) float64 {
	if len(buf) == 0 {
		return 0
	}
	var s float64
	for _, x := range buf {
		s += real(x)*real(x) + imag(x)*imag(x)
	}
	return s / float64(len(buf))
}

// PowerDBm returns Power in dBm, treating sample power as watts.
func PowerDBm(buf []complex128) float64 { return units.WattsToDBm(Power(buf)) }

// FFT computes the in-place radix-2 decimation-in-time FFT of buf. The
// length must be a power of two; it panics otherwise. The transform is
// unnormalized (inverse = conj–FFT–conj/N).
func FFT(buf []complex128) {
	n := len(buf)
	if n == 0 {
		return
	}
	if n&(n-1) != 0 {
		panic("signal: FFT length must be a power of two")
	}
	// Bit reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j |= bit
		if i < j {
			buf[i], buf[j] = buf[j], buf[i]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		ang := -2 * math.Pi / float64(length)
		wl := cmplx.Rect(1, ang)
		for i := 0; i < n; i += length {
			w := complex(1, 0)
			for j := 0; j < length/2; j++ {
				u := buf[i+j]
				v := buf[i+j+length/2] * w
				buf[i+j] = u + v
				buf[i+j+length/2] = u - v
				w *= wl
			}
		}
	}
}

// HannWindow applies a Hann window in place and returns buf.
func HannWindow(buf []complex128) []complex128 {
	n := len(buf)
	if n < 2 {
		return buf
	}
	for i := range buf {
		w := 0.5 * (1 - math.Cos(2*math.Pi*float64(i)/float64(n-1)))
		buf[i] *= complex(w, 0)
	}
	return buf
}

// PeakBin returns the index and magnitude of the largest-magnitude bin in
// spectrum[lo:hi). It panics on an empty or inverted range.
func PeakBin(spectrum []complex128, lo, hi int) (int, float64) {
	if lo < 0 || hi > len(spectrum) || lo >= hi {
		panic("signal: bad peak search range")
	}
	best, bestMag := lo, cmplx.Abs(spectrum[lo])
	for i := lo + 1; i < hi; i++ {
		if m := cmplx.Abs(spectrum[i]); m > bestMag {
			best, bestMag = i, m
		}
	}
	return best, bestMag
}

// NextPow2 returns the smallest power of two ≥ n (minimum 1).
func NextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// MeanAndStd returns the mean and standard deviation of xs (population
// convention); both zero for an empty slice.
func MeanAndStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		d := x - mean
		std += d * d
	}
	return mean, math.Sqrt(std / float64(len(xs)))
}

// Histogram bins xs into nbins equal-width bins over [lo, hi] and returns
// the per-bin probability mass (percent, summing to ≈100 for samples in
// range). Out-of-range samples are clipped into the edge bins, matching
// how Fig. 2/20's PDFs are plotted. It panics for nbins ≤ 0 or hi ≤ lo.
func Histogram(xs []float64, lo, hi float64, nbins int) []float64 {
	if nbins <= 0 || hi <= lo {
		panic("signal: bad histogram shape")
	}
	h := make([]float64, nbins)
	if len(xs) == 0 {
		return h
	}
	w := (hi - lo) / float64(nbins)
	for _, x := range xs {
		i := int((x - lo) / w)
		if i < 0 {
			i = 0
		}
		if i >= nbins {
			i = nbins - 1
		}
		h[i]++
	}
	scale := 100 / float64(len(xs))
	for i := range h {
		h[i] *= scale
	}
	return h
}
