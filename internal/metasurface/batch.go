package metasurface

// The batched evaluation API. A sweep runner visits a whole axis of
// operating points per row — seven biases per fig11 frequency — and
// JonesBatch evaluates such an axis in one call. JonesBatch loops the
// scalar lookup: each point resolves through the same lookups a
// SetBias+Jones query makes (Surface.axisAt / qwpAt, one table read
// each) and assembles through the same helpers (jonesTransmissiveFrom /
// jonesReflectiveFrom), so results are bit-identical to the scalar path
// in both modes — cached and caching disabled — by construction. That
// equivalence is determinism invariant #11 in ARCHITECTURE.md, locked
// in under -race by batch_test.go.

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

// JonesBatch computes the surface's Jones matrix at every point,
// leaving the surface's own bias state untouched. dst is reused when it
// has capacity (pass nil to allocate); the resized slice is returned.
// Each dst[i] is bit-identical to
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
	for i, p := range pts {
		xr, yr, qw := s.responsesAt(p)
		if mode == Reflective {
			dst[i] = jonesReflectiveFrom(xr, yr, qw)
		} else {
			dst[i] = jonesTransmissiveFrom(xr, yr, qw)
		}
	}
	return dst
}

// responsesAt resolves one batch point's per-axis and QWP responses
// through the scalar lookups, clamping the biases as SetBias does.
func (s *Surface) responsesAt(p BatchPoint) (xr, yr axisResponse, qw *qwpResponse) {
	lo, hi := s.design.MinBiasV, s.design.MaxBiasV
	xr = s.axisAt(AxisX, p.F, units.Clamp(p.VX, lo, hi))
	yr = s.axisAt(AxisY, p.F, units.Clamp(p.VY, lo, hi))
	return xr, yr, s.qwpAt(p.F)
}
