// Package radio models the PHY layer of the commodity protocols LLAMA
// serves: 802.11g Wi-Fi rates and BLE 1M GFSK. It converts the SNR the
// channel package produces into bit error rate, packet error rate and
// effective throughput, quantifying the paper's observation that "an
// increase in the received power usually translates to a throughput
// improvement" (§5 performance-metrics discussion).
//
// The BER models are the standard AWGN closed forms (coherent M-QAM /
// PSK via the Gaussian Q-function, non-coherent GFSK for BLE);
// convolutional coding is approximated by an SNR coding gain, which is
// accurate to within ~1 dB over the packet-error knee — plenty for the
// relative comparisons the experiments make.
package radio

import (
	"errors"
	"fmt"
	"math"
)

// Q returns the Gaussian tail probability Q(x) = 0.5·erfc(x/√2).
func Q(x float64) float64 {
	return 0.5 * math.Erfc(x/math.Sqrt2)
}

// Modulation identifies a constellation.
type Modulation int

// Supported constellations.
const (
	BPSK Modulation = iota
	QPSK
	QAM16
	QAM64
	GFSK // BLE's Gaussian FSK
)

// String implements fmt.Stringer.
func (m Modulation) String() string {
	switch m {
	case BPSK:
		return "BPSK"
	case QPSK:
		return "QPSK"
	case QAM16:
		return "16-QAM"
	case QAM64:
		return "64-QAM"
	case GFSK:
		return "GFSK"
	default:
		return fmt.Sprintf("Modulation(%d)", int(m))
	}
}

// BER returns the uncoded bit error rate at the given per-symbol linear
// SNR (Es/N0) on an AWGN channel.
func (m Modulation) BER(snr float64) float64 {
	if snr <= 0 {
		return 0.5
	}
	switch m {
	case BPSK:
		// Eb/N0 == Es/N0 for BPSK.
		return Q(math.Sqrt(2 * snr))
	case QPSK:
		// Gray-coded QPSK matches BPSK per bit: Es = 2Eb.
		return Q(math.Sqrt(snr))
	case QAM16:
		// Standard Gray-coded M-QAM approximation.
		return qamBER(16, snr)
	case QAM64:
		return qamBER(64, snr)
	case GFSK:
		// Non-coherent binary FSK: 0.5·exp(−Eb/2N0).
		return 0.5 * math.Exp(-snr/2)
	default:
		panic("radio: unknown modulation")
	}
}

// qamBER is the Gray-coded square-QAM bit error approximation:
// (4/log2 M)·(1−1/√M)·Q(√(3·SNR/(M−1))).
func qamBER(m float64, snr float64) float64 {
	k := math.Log2(m)
	arg := math.Sqrt(3 * snr / (m - 1))
	ber := (4 / k) * (1 - 1/math.Sqrt(m)) * Q(arg)
	if ber > 0.5 {
		return 0.5
	}
	return ber
}

// Rate is one PHY operating point.
type Rate struct {
	// Name labels the rate ("11g 54M", "BLE 1M").
	Name string
	// Modulation is the constellation.
	Modulation Modulation
	// CodeRate is the FEC rate (1 = uncoded).
	CodeRate float64
	// CodingGainDB approximates the FEC's SNR advantage at the PER knee.
	CodingGainDB float64
	// BitRate is the nominal PHY bit rate in bit/s.
	BitRate float64
}

// BER returns the effective post-coding bit error rate at linear SNR.
func (r Rate) BER(snr float64) float64 {
	effective := snr * math.Pow(10, r.CodingGainDB/10)
	return r.Modulation.BER(effective)
}

// PER returns the packet error rate for a frame of frameBytes at linear
// SNR, assuming independent residual bit errors.
func (r Rate) PER(snr float64, frameBytes int) float64 {
	if frameBytes <= 0 {
		panic("radio: non-positive frame size")
	}
	ber := r.BER(snr)
	bits := float64(frameBytes * 8)
	// 1 − (1−BER)^bits, computed in log space for tiny BER.
	return -math.Expm1(bits * math.Log1p(-ber))
}

// Throughput returns the expected goodput in bit/s at linear SNR for the
// given frame size: rate × (1 − PER).
func (r Rate) Throughput(snr float64, frameBytes int) float64 {
	return r.BitRate * (1 - r.PER(snr, frameBytes))
}

// WiFi11g is the 802.11g rate set (simplified: the four modulation tiers
// with representative coding).
var WiFi11g = []Rate{
	{Name: "11g 6M", Modulation: BPSK, CodeRate: 0.5, CodingGainDB: 5.0, BitRate: 6e6},
	{Name: "11g 12M", Modulation: QPSK, CodeRate: 0.5, CodingGainDB: 5.0, BitRate: 12e6},
	{Name: "11g 24M", Modulation: QAM16, CodeRate: 0.5, CodingGainDB: 5.0, BitRate: 24e6},
	{Name: "11g 36M", Modulation: QAM16, CodeRate: 0.75, CodingGainDB: 3.5, BitRate: 36e6},
	{Name: "11g 48M", Modulation: QAM64, CodeRate: 0.67, CodingGainDB: 4.0, BitRate: 48e6},
	{Name: "11g 54M", Modulation: QAM64, CodeRate: 0.75, CodingGainDB: 3.5, BitRate: 54e6},
}

// BLE1M is the Bluetooth Low Energy 1 Mbit/s uncoded PHY.
var BLE1M = Rate{Name: "BLE 1M", Modulation: GFSK, CodeRate: 1, CodingGainDB: 0, BitRate: 1e6}

// SelectRate returns the rate from the table with the highest expected
// throughput at the given SNR and frame size — idealized rate adaptation.
// It returns an error for an empty table.
func SelectRate(table []Rate, snr float64, frameBytes int) (Rate, error) {
	if len(table) == 0 {
		return Rate{}, errors.New("radio: empty rate table")
	}
	best := table[0]
	bestTp := best.Throughput(snr, frameBytes)
	for _, r := range table[1:] {
		if tp := r.Throughput(snr, frameBytes); tp > bestTp {
			best, bestTp = r, tp
		}
	}
	return best, nil
}

// AdaptedThroughput returns the throughput of the best rate at SNR.
func AdaptedThroughput(table []Rate, snr float64, frameBytes int) float64 {
	r, err := SelectRate(table, snr, frameBytes)
	if err != nil {
		return 0
	}
	return r.Throughput(snr, frameBytes)
}
