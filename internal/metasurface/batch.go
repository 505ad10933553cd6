package metasurface

// The batched evaluation API. A sweep runner visits a whole axis of
// operating points per row — 21×21 bias pairs in a FullScan, seven
// biases per fig11 frequency — and the scalar path pays a snapshot
// load, counter update and (on a cold table) a mutex round-trip per
// point. JonesBatch resolves the whole axis against ONE published
// snapshot, computes every miss in one grouped singleflight pass, and
// folds the counters in one add, so per-point synchronization traffic
// amortizes away. Results are bit-identical to calling the scalar path
// point by point in both modes — cached and caching disabled — because
// both paths resolve through the same memoized evaluations and assemble
// through the same helpers (jonesTransmissiveFrom /
// jonesReflectiveFrom). That equivalence is determinism invariant #11
// in ARCHITECTURE.md, locked in under -race by batch_test.go.

import (
	"github.com/llama-surface/llama/internal/mat2"
	"github.com/llama-surface/llama/internal/units"
)

// BatchPoint is one operating point of a batched surface evaluation:
// the carrier frequency plus the X/Y bias pair. Biases are clamped to
// the design's control range exactly as SetBias clamps, so a batch
// point behaves like SetBias(VX, VY) followed by a scalar query.
type BatchPoint struct {
	// F is the evaluation frequency in Hz.
	F float64
	// VX, VY are the X- and Y-axis bias voltages in volts.
	VX, VY float64
}

// JonesBatch computes the surface's Jones matrix at every point in one
// grouped pass, appending nothing to the surface's own bias state. dst
// is reused when it has capacity (pass nil to allocate); the resized
// slice is returned. Each dst[i] is bit-identical to
//
//	s.SetBias(pts[i].VX, pts[i].VY)
//	s.Jones(mode, pts[i].F)
//
// in every cache mode (invariant #11).
func (s *Surface) JonesBatch(mode Mode, pts []BatchPoint, dst []mat2.Mat) []mat2.Mat {
	if cap(dst) < len(pts) {
		dst = make([]mat2.Mat, len(pts))
	}
	dst = dst[:len(pts)]
	if len(pts) == 0 {
		return dst
	}
	xr, yr, qw := s.batchResponses(pts)
	for i := range pts {
		if mode == Reflective {
			dst[i] = jonesReflectiveFrom(xr[i], yr[i], qw[i])
		} else {
			dst[i] = jonesTransmissiveFrom(xr[i], yr[i], qw[i])
		}
	}
	return dst
}

// Warm pre-resolves (and thus memoizes) every response a later scan of
// the given points will need — both axes and the QWP — without
// assembling any Jones matrix. The memoized primitives serve both
// modes, so one Warm covers transmissive and reflective queries alike.
// Warming is bit-neutral by construction: it only populates the same
// memoization state the scan itself would populate, never an output.
func (s *Surface) Warm(pts []BatchPoint) {
	if len(pts) == 0 {
		return
	}
	s.batchResponses(pts)
}

// batchResponses resolves the per-axis and QWP responses of every
// point. On the exact cached path all 2·n axis points and n QWP
// frequencies resolve against one snapshot each, in one grouped
// singleflight pass per kind. The uncached path loops the same
// per-point resolution the scalar path uses — per-mode bit-identity is
// the contract, not a shared fast path.
func (s *Surface) batchResponses(pts []BatchPoint) (xr, yr []axisResponse, qw []qwpResponse) {
	n := len(pts)
	xr = make([]axisResponse, n)
	yr = make([]axisResponse, n)
	qw = make([]qwpResponse, n)
	lo, hi := s.design.MinBiasV, s.design.MaxBiasV
	if s.table == nil || !CachingEnabled() {
		// The scalar resolution already handles direct evaluation;
		// batching only groups the loop.
		for i, p := range pts {
			xr[i] = s.axisAt(AxisX, p.F, units.Clamp(p.VX, lo, hi))
			yr[i] = s.axisAt(AxisY, p.F, units.Clamp(p.VY, lo, hi))
			qw[i] = s.qwpAt(p.F)
		}
		return xr, yr, qw
	}
	ap := make([]axisPoint, 2*n)
	for i, p := range pts {
		ap[2*i] = axisPoint{axis: AxisX, f: p.F, v: units.Clamp(p.VX, lo, hi)}
		ap[2*i+1] = axisPoint{axis: AxisY, f: p.F, v: units.Clamp(p.VY, lo, hi)}
	}
	ar := make([]axisResponse, 2*n)
	ahits, amisses := s.table.axisBatch(s.design, ap, ar, s.shard)
	for i := range pts {
		xr[i] = ar[2*i]
		yr[i] = ar[2*i+1]
	}
	freqs := make([]float64, n)
	for i, p := range pts {
		freqs[i] = p.F
	}
	qhits, qmisses := s.table.qwpBatch(s.design, freqs, qw, s.shard)
	s.hits.Add(ahits + qhits)
	s.misses.Add(amisses + qmisses)
	return xr, yr, qw
}
