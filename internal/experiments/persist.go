package experiments

// Persistence glue between the engine and internal/store: converting
// Result tables to self-describing store records and back, and the
// resume-time validation that decides whether a stored cell can stand in
// for a fresh computation. The conversion is lossless — the string
// encoding in store round-trips every float64 bit-exactly — which is
// what lets a resumed run reproduce a fresh run bit-for-bit
// (determinism invariant 6 in ARCHITECTURE.md).

import (
	"fmt"
	"slices"

	"github.com/llama-surface/llama/internal/store"
)

// CellRecord converts one computed cell into its persisted store form.
// It is the one constructor of cell records: a submission's finalize
// and a fleet worker's -store persistence both build through it. Their
// records of the same cell are content-equal — same title, columns,
// rows and notes — but not byte-identical, because their Meta differs:
// a worker records Concurrency 1 and its job's ElapsedNs, finalize the
// run's concurrency, ShardRows and BatchRows, and each stamps its own
// SavedUnixNs. Store.Put confirms a content-equal record instead of
// rewriting it, so whichever write lands second leaves the first
// record, and its Meta, in place.
func CellRecord(res *Result, seed int64, meta store.Meta) *store.Record {
	return &store.Record{
		ID:      res.ID,
		Seed:    seed,
		Title:   res.Title,
		Columns: slices.Clone(res.Columns),
		Rows:    store.EncodeRows(res.Rows),
		Notes:   slices.Clone(res.Notes),
		Meta:    meta,
	}
}

// resultFromRecord converts a validated store record back into the
// Result the engine would have computed.
func resultFromRecord(rec *store.Record) (*Result, error) {
	rows, err := rec.DecodeRows()
	if err != nil {
		return nil, err
	}
	return &Result{
		ID:      rec.ID,
		Title:   rec.Title,
		Columns: slices.Clone(rec.Columns),
		Rows:    rows,
		Notes:   slices.Clone(rec.Notes),
	}, nil
}

// loadStored consults the store for one (experiment, seed) cell. It
// returns (result, "", true) when a valid record exists, and otherwise
// (nil, warning, false): the warning is empty for a cell that simply
// was never stored, and names the experiment, seed and file for a
// record that exists but cannot be used (corrupt, schema-mismatched, or
// shaped unlike the current sweep) — those cells are recomputed, never
// fatal.
func loadStored(st *store.Store, id string, seed int64) (*Result, string, bool) {
	rec, err := st.Get(id, seed)
	if err != nil {
		if store.IsNotFound(err) {
			return nil, "", false
		}
		return nil, fmt.Sprintf("%v: recomputing", err), false
	}
	// Cells an older release computed in its approximate LUT mode carry
	// the legacy Meta.LUT marker and are never reused: their rows are not
	// bit-identical to exact computation, and invariant 6 promises a
	// resumed run reproduces a fresh (exact) run bit-for-bit.
	if rec.Meta.LUT {
		return nil, fmt.Sprintf("store: record for %s (seed %d) at %s was computed in approximate LUT mode: recomputing",
			id, seed, rec.Path), false
	}
	// A record that predates a change to the experiment's table shape
	// would fold garbage into the aggregates; validate against the
	// sweep's declared columns before trusting it.
	if sw := sweeps[id]; sw != nil && !slices.Equal(rec.Columns, sw.Columns) {
		return nil, fmt.Sprintf("store: stale record for %s (seed %d) at %s: stored columns %v, sweep declares %v: recomputing",
			id, seed, rec.Path, rec.Columns, sw.Columns), false
	}
	res, err := resultFromRecord(rec)
	if err != nil {
		return nil, fmt.Sprintf("store: corrupt record for %s (seed %d) at %s: %v: recomputing",
			id, seed, rec.Path, err), false
	}
	return res, "", true
}
