// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) plus the design-space ablations called out in
// DESIGN.md. Each experiment is a pure function of a seed, producing a
// numeric Result that cmd/llama-bench renders as text and bench_test.go
// exercises as a benchmark.
//
// Experiments are declared as Sweeps: an axis of points plus a per-point
// function pure in (seed, point). The serial path (Run) walks the
// axis in order; the concurrent scheduler queues every job as a point
// range of one sweep — the whole axis per (experiment, seed) cell, or,
// with ShardRows, batches of points — across one bounded worker pool,
// collecting into pre-assigned slots so output is bit-identical to the
// serial path for any worker count. See ARCHITECTURE.md at the repository
// root for the layer diagram and the determinism invariants.
package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Result is a rendered experiment outcome: a labelled numeric table (the
// rows/series the paper plots) plus free-form notes on the headline
// comparison.
type Result struct {
	// ID is the registry key (e.g. "fig16").
	ID string
	// Title describes the paper artefact reproduced.
	Title string
	// Columns labels the numeric columns.
	Columns []string
	// Rows is the table body.
	Rows [][]float64
	// Notes carries the headline observations (who wins, by how much).
	Notes []string
}

// AddRow appends a row, enforcing column arity.
func (r *Result) AddRow(vals ...float64) {
	if len(vals) != len(r.Columns) {
		panic(fmt.Sprintf("experiments: %s: row arity %d != %d columns", r.ID, len(vals), len(r.Columns)))
	}
	r.Rows = append(r.Rows, vals)
}

// AddNote appends a formatted note.
func (r *Result) AddNote(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Render writes the result as an aligned text table.
func (r *Result) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s\n", r.ID, r.Title); err != nil {
		return err
	}
	widths := make([]int, len(r.Columns))
	cells := make([][]string, len(r.Rows))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	for ri, row := range r.Rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			s := formatCell(v)
			cells[ri][ci] = s
			if len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	var sb strings.Builder
	for i, c := range r.Columns {
		fmt.Fprintf(&sb, "%*s  ", widths[i], c)
	}
	sb.WriteByte('\n')
	for _, row := range cells {
		for i, c := range row {
			fmt.Fprintf(&sb, "%*s  ", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&sb, "   note: %s\n", n)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

func formatCell(v float64) string {
	switch {
	case math.IsNaN(v):
		return "—"
	case math.IsInf(v, -1):
		return "-inf"
	case math.IsInf(v, 1):
		return "+inf"
	case v != 0 && math.Abs(v) < 0.01:
		return fmt.Sprintf("%.2e", v)
	case math.Abs(v) >= 1e6:
		return fmt.Sprintf("%.3g", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// Column extracts one column by index.
func (r *Result) Column(i int) []float64 {
	out := make([]float64, len(r.Rows))
	for ri, row := range r.Rows {
		out[ri] = row[i]
	}
	return out
}

// IDs returns the registered experiment IDs in sorted order.
func IDs() []string {
	out := make([]string, 0, len(sweeps))
	for id := range sweeps {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Describe returns the one-line summary for an experiment ID.
func Describe(id string) string {
	if s, ok := sweeps[id]; ok {
		return s.Description
	}
	return ""
}

// Run executes one experiment by ID under ctx: its sweep's points in
// axis order on the calling goroutine. Like every path into an
// experiment it is pure in seed — the same seed always yields
// bit-identical output, and ctx is consulted only for cancellation.
func Run(ctx context.Context, id string, seed int64) (*Result, error) {
	s, ok := sweeps[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (have %v)", id, IDs())
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.runSerial(ctx, seed)
}

// maxIn returns the maximum of xs; -Inf for empty input.
func maxIn(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// minIn returns the minimum of xs; +Inf for empty input.
func minIn(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}
