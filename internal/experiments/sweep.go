package experiments

import (
	"context"
	"fmt"
)

// A Sweep declares one experiment as an axis of independent points: a
// fixed number of points plus a per-point function that is pure in
// (seed, point). The serial reference path executes points 0..Points-1 in
// order; the scheduler computes the same points as point-range jobs — one
// job over the whole axis, or, when row sharding is enabled, one job per
// point batch fanned out across its worker pool — and reassembles them in
// slot (point) order, so every path produces bit-identical tables.
//
// A sweep point may produce several rows (a histogram computed in one
// pass) or exactly one (a distance step of a §5 sweep). Experiments whose
// work does not decompose along any axis declare a single point; they
// still ride the same queue, they just don't shard.
type Sweep struct {
	// ID is the registry key (e.g. "fig16"); Description the one-line
	// summary shown by -list.
	ID, Description string
	// Title and Columns seed the assembled Result.
	Title   string
	Columns []string
	// Points is the axis length. Zero is legal and yields an empty table
	// (Finish still runs).
	Points int
	// Point computes point i. It must be pure in (seed, i): no state may
	// leak between points, and ctx is consulted only for cancellation.
	// That purity is the sharding contract — the scheduler may run points in
	// any order on any goroutine.
	Point func(ctx context.Context, seed int64, i int) (PointResult, error)
	// Finish post-processes the assembled table (summary notes computed
	// over all rows). It runs exactly once, after every point, on the
	// already-ordered rows — never concurrently. Optional.
	Finish func(res *Result, seed int64) error
	// Warm, when set, pre-populates memoization state for the point range
	// [start, start+count) before it runs — typically one Surface.Warm
	// covering the range's whole operating-point axis, so a cold process
	// resolves the range's misses before its points run. Warm MUST be
	// bit-neutral: it may only populate the same caches the points
	// themselves would populate, never alter an output (a whole-axis
	// job and the serial path warm the full axis, a sharded job only its
	// batch, and every granularity must still reproduce the unwarmed
	// tables bit-for-bit). Optional.
	Warm func(ctx context.Context, seed int64, start, count int)
}

// PointResult is the output of one sweep point: the rows it contributes
// (in order) and any per-point notes.
type PointResult struct {
	Rows  [][]float64
	Notes []string
}

// Row wraps a single table row as a PointResult — the common case for
// per-distance/per-frequency sweep points.
func Row(vals ...float64) PointResult {
	return PointResult{Rows: [][]float64{vals}}
}

// AddNote appends a formatted note to the point's output.
func (p *PointResult) AddNote(format string, args ...any) {
	p.Notes = append(p.Notes, fmt.Sprintf(format, args...))
}

// PointError names the sweep point whose per-point function failed.
type PointError struct {
	// Point is the failing index on the 0-based axis of Points points.
	Point, Points int
	// Err is the underlying failure.
	Err error
}

// Error implements error.
func (e *PointError) Error() string {
	return fmt.Sprintf("point %d/%d: %v", e.Point, e.Points, e.Err)
}

// Unwrap returns the underlying point failure.
func (e *PointError) Unwrap() error { return e.Err }

// sweeps is the experiment registry: every experiment is a sweep, indexed
// by ID, populated by init functions in the per-figure files.
var sweeps = map[string]*Sweep{}

// RegisterSweep adds a custom sweep-shaped experiment to the registry,
// making it runnable by ID through every execution path (serial,
// engine, scheduler, service). It is intended for init-time extension —
// registration is not safe concurrently with running experiments — and
// panics on a duplicate ID, a nil Point function or negative Points,
// all programmer errors.
//
//lint:allow unused test hook: fleet and service tests register their failing and slow sweeps through it
func RegisterSweep(s *Sweep) { registerSweep(s) }

// registerSweep adds an experiment to the registry; a duplicate ID is a
// programmer error.
func registerSweep(s *Sweep) {
	if s.Point == nil {
		panic("experiments: sweep " + s.ID + " has no Point function")
	}
	if s.Points < 0 {
		panic("experiments: sweep " + s.ID + " has negative Points")
	}
	if _, dup := sweeps[s.ID]; dup {
		panic("experiments: duplicate id " + s.ID)
	}
	sweeps[s.ID] = s
}

// newResult builds the empty table a sweep's points fill in.
func (s *Sweep) newResult() *Result {
	return &Result{
		ID:      s.ID,
		Title:   s.Title,
		Columns: append([]string(nil), s.Columns...),
	}
}

// appendPoint folds one point's output into the table, enforcing column
// arity exactly like Result.AddRow.
func (s *Sweep) appendPoint(res *Result, pt PointResult) {
	for _, row := range pt.Rows {
		res.AddRow(row...)
	}
	res.Notes = append(res.Notes, pt.Notes...)
}

// finish runs the optional Finish hook on the assembled table.
func (s *Sweep) finish(res *Result, seed int64) error {
	if s.Finish == nil {
		return nil
	}
	return s.Finish(res, seed)
}

// runSerial is the sweep's serial runner behind Run: points in axis order
// on one goroutine — the reference the scheduler must reproduce bit-for-bit.
// On a point failure the rows assembled so far are returned alongside a
// *PointError naming the failing point, so callers can salvage the
// completed prefix.
func (s *Sweep) runSerial(ctx context.Context, seed int64) (*Result, error) {
	res := s.newResult()
	if s.Warm != nil && s.Points > 0 {
		s.Warm(ctx, seed, 0, s.Points)
	}
	for i := 0; i < s.Points; i++ {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		pt, err := s.Point(ctx, seed, i)
		if err != nil {
			return res, &PointError{Point: i, Points: s.Points, Err: err}
		}
		s.appendPoint(res, pt)
	}
	return res, s.finish(res, seed)
}

// axis materializes the inclusive accumulating for-loop the imperative
// runners used (`for v := start; v <= stopIncl; v += step`) so sweep
// points index bit-identical axis values.
func axis(start, stopIncl, step float64) []float64 {
	var out []float64
	for v := start; v <= stopIncl; v += step {
		out = append(out, v)
	}
	return out
}
