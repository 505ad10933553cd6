package antenna

// Code only this package's tests call. No figure, command or service
// reaches it, so it is compiled into the tests alone.

import (
	"math"

	"github.com/llama-surface/llama/internal/jones"
)

// MismatchLossDB returns the polarization loss (dB ≤ 0) between this
// antenna at orientation psiTx and a receiving antenna rx at psiRx over a
// clean line-of-sight path — the quantity plotted in Fig. 2's micro
// benchmarks.
func (m Model) MismatchLossDB(psiTx float64, rx Model, psiRx float64) float64 {
	return 10 * math.Log10(jones.PLF(m.PolarizationState(psiTx), rx.PolarizationState(psiRx)))
}
