package store

// Run records: the durable metadata layer the llama-serve service sits
// on. Cell records (store.go) persist each (experiment, seed) table;
// run records persist each *submission* — its spec, lifecycle status
// and cell counts — under DIR/runs/, so a restarted server re-lists
// every run it ever accepted and re-serves completed results from the
// cell records alone. A run record never carries result bytes: the
// result of a completed run is always reconstructed from its cells,
// which is what makes re-served output bit-identical to the original
// (determinism invariant 7 builds on invariant 6).

// RunSchemaVersion is the run-record format this package writes.
const RunSchemaVersion = 1

// RunSpec mirrors the engine's submission shape (experiments.RunSpec)
// field-for-field. It is declared here rather than aliased because the
// store sits below the experiments package in the layer diagram and
// must not import upward.
type RunSpec struct {
	// IDs are the resolved experiment IDs the run executes.
	IDs []string `json:"ids"`
	// Seeds are the replication seeds.
	Seeds []int64 `json:"seeds"`
	// ShardRows and BatchRows record the fan-out shape (outputs are
	// bit-identical across all of them).
	ShardRows bool `json:"shard_rows,omitempty"`
	BatchRows int  `json:"batch_rows,omitempty"`
	// Resume records whether the run consulted the store before
	// queueing cells.
	Resume bool `json:"resume,omitempty"`
}

// RunRecord is the persisted lifecycle of one submitted run.
type RunRecord struct {
	// Schema is the record format version (RunSchemaVersion when written
	// by this package).
	Schema int `json:"schema"`
	// ID is the run identifier the service assigned (e.g. "run-000003").
	ID string `json:"id"`
	// Spec is the normalized submission the run executes.
	Spec RunSpec `json:"spec"`
	// Status is the lifecycle state, owned by the service layer
	// (running / done / failed / cancelled / interrupted); the store
	// treats it as opaque.
	Status string `json:"status"`
	// Error carries the run error for failed/cancelled/interrupted runs.
	Error string `json:"error,omitempty"`
	// CreatedUnixNs and FinishedUnixNs bound the run's wall-clock life.
	CreatedUnixNs  int64 `json:"created_unix_ns"`
	FinishedUnixNs int64 `json:"finished_unix_ns,omitempty"`
	// ReusedCells and ComputedCells record how much of the run was
	// answered from the store versus computed fresh.
	ReusedCells   int `json:"reused_cells,omitempty"`
	ComputedCells int `json:"computed_cells,omitempty"`

	// Path is where the record was read from or written to; set by
	// GetRun/PutRun/ListRuns, never serialized.
	Path string `json:"-"`
}

// runKind stores run records under DIR/runs, keyed by run ID.
var runKind = &kind[RunRecord, *RunRecord]{sub: "runs", schema: RunSchemaVersion}

// header keys a run record by its run ID.
func (r *RunRecord) header() (*int, *string, string, int64) { return &r.Schema, &r.Path, r.ID, 0 }

// PutRun atomically persists one run record, stamping its Schema and
// Path.
func (s *Store) PutRun(rec *RunRecord) error {
	_, err := runKind.put(s.dir, rec, nil)
	return err
}

// GetRun loads and validates the record for a run ID. It returns a
// *NotFoundError when the run was never recorded, and a *CorruptError
// (with Seed 0) naming the path when a record exists but is truncated,
// unparseable, schema-mismatched or mislabelled.
func (s *Store) GetRun(id string) (*RunRecord, error) {
	rec, _, err := runKind.get(s.dir, id, 0)
	return rec, err
}

// ListRuns returns every readable run record, sorted by ID. Unreadable
// records are skipped — they stay on disk as evidence and surface as
// *CorruptError from GetRun — so a single damaged record never hides
// the rest.
func (s *Store) ListRuns() ([]*RunRecord, error) {
	keys, err := runKind.names(s.dir)
	if err != nil {
		return nil, err
	}
	var out []*RunRecord
	for _, k := range keys {
		if rec, err := s.GetRun(k.id); err == nil {
			out = append(out, rec)
		}
	}
	return out, nil
}

// DeleteRun removes a run's record. Deleting a run never touches cell
// records — cells are shared across runs, and a re-submitted spec
// reuses them. Deleting an unrecorded run is a no-op.
func (s *Store) DeleteRun(id string) error { return runKind.remove(s.dir, id, 0) }
