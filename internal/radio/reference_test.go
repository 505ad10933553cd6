package radio

// Code only this package's tests call. No figure, command or service
// reaches it, so it is compiled into the tests alone.

import (
	"fmt"
	"math"
	"sort"
)

// BitsPerSymbol returns log2(M).
func (m Modulation) BitsPerSymbol() int {
	switch m {
	case BPSK:
		return 1
	case QPSK:
		return 2
	case QAM16:
		return 4
	case QAM64:
		return 6
	case GFSK:
		return 1
	default:
		panic("radio: unknown modulation")
	}
}

// Validate reports an error for unusable rates.
func (r Rate) Validate() error {
	switch {
	case r.CodeRate <= 0 || r.CodeRate > 1:
		return fmt.Errorf("radio: %s: code rate %g outside (0,1]", r.Name, r.CodeRate)
	case r.CodingGainDB < 0:
		return fmt.Errorf("radio: %s: negative coding gain", r.Name)
	case r.BitRate <= 0:
		return fmt.Errorf("radio: %s: non-positive bit rate", r.Name)
	}
	return nil
}

// SNRForPER inverts PER: the minimum linear SNR at which the rate meets
// the target packet error rate, found by bisection. It returns an error
// for unreachable targets.
func (r Rate) SNRForPER(target float64, frameBytes int) (float64, error) {
	if target <= 0 || target >= 1 {
		return 0, fmt.Errorf("radio: PER target %g outside (0,1)", target)
	}
	lo, hi := 1e-3, 1e8
	if r.PER(hi, frameBytes) > target {
		return 0, fmt.Errorf("radio: %s cannot reach PER %g", r.Name, target)
	}
	for i := 0; i < 200 && hi/lo > 1.0001; i++ {
		mid := math.Sqrt(lo * hi)
		if r.PER(mid, frameBytes) > target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return math.Sqrt(lo * hi), nil
}

// RateLadder returns the SNR thresholds (dB) at which each rate in the
// table becomes the throughput-optimal choice, sorted ascending — the
// crossover structure rate adaptation walks as LLAMA improves the link.
func RateLadder(table []Rate, frameBytes int) []float64 {
	var thresholds []float64
	prev := ""
	for db := -10.0; db <= 45; db += 0.1 {
		snr := math.Pow(10, db/10)
		r, err := SelectRate(table, snr, frameBytes)
		if err != nil {
			return nil
		}
		if r.Name != prev {
			if prev != "" {
				thresholds = append(thresholds, db)
			}
			prev = r.Name
		}
	}
	sort.Float64s(thresholds)
	return thresholds
}
