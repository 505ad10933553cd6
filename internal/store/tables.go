package store

// Response-table records: the persisted form of the per-design response
// tables (internal/metasurface/table.go), under DIR/tables/. Cell
// records persist *results*; table records persist the *memoized
// physics* those results were computed from, so a fresh process — a
// llama-bench resume, a restarted llama-serve, a new fleet worker —
// starts with every previously computed evaluation already warm. A
// table record is pure acceleration state: losing one costs
// recomputation, never correctness, which is why corrupt records are
// skipped (warn + recompute) rather than fatal. Entry rows are opaque
// string tuples here — the metasurface package owns their arity and
// float encoding; the store only guarantees atomic, schema-versioned,
// lossless round-trips.

import (
	"os"
	"time"
)

// TableSchemaVersion is the table-record format this package writes.
const TableSchemaVersion = 1

// TableRecord is the persisted response table of one design fingerprint.
type TableRecord struct {
	// Schema is the record format version (TableSchemaVersion when
	// written by this package).
	Schema int `json:"schema"`
	// Fingerprint is the canonical design identity the entries belong to
	// (metasurface.DesignFingerprint).
	Fingerprint string `json:"fingerprint"`
	// SavedUnixNs stamps the write time.
	SavedUnixNs int64 `json:"saved_unix_ns"`
	// Axis and QWP hold the serialized table entries as string rows with
	// lossless float columns; the metasurface package defines and
	// validates their layout.
	Axis [][]string `json:"axis,omitempty"`
	QWP  [][]string `json:"qwp,omitempty"`

	// Path is where the record was read from or written to; set by
	// GetTable/PutTable, never serialized.
	Path string `json:"-"`
	// file is the stat of the file read or written at Path, for
	// NoteTableSynced.
	file os.FileInfo
}

// Entries returns the total entry count of the record.
func (r *TableRecord) Entries() int { return len(r.Axis) + len(r.QWP) }

// tableKind stores table records under DIR/tables, keyed by
// fingerprint.
var tableKind = &kind[TableRecord, *TableRecord]{sub: "tables", schema: TableSchemaVersion}

// header keys a table record by its fingerprint.
func (r *TableRecord) header() (*int, *string, string, int64) {
	return &r.Schema, &r.Path, r.Fingerprint, 0
}

// TablePath returns the path the record for a fingerprint lives at,
// whether or not it exists yet. Fingerprints are path-escaped like cell
// IDs, so a hostile fingerprint can never traverse directories.
func (s *Store) TablePath(fingerprint string) string { return tableKind.path(s.dir, fingerprint, 0) }

// PutTable atomically persists one table record, stamping its Schema
// and Path, and its SavedUnixNs when unset (pinned stamps keep
// cross-process writers byte-identical).
func (s *Store) PutTable(rec *TableRecord) error {
	if rec != nil && rec.SavedUnixNs == 0 {
		rec.SavedUnixNs = time.Now().UnixNano()
	}
	info, err := tableKind.put(s.dir, rec, nil)
	if err == nil {
		rec.file = info
	}
	return err
}

// GetTable loads and validates the record for a design fingerprint. It
// returns a *NotFoundError when the table was never persisted, and a
// *CorruptError (with Seed 0) naming the path when a record exists but
// is truncated, unparseable, schema-mismatched or mislabelled. Callers
// treat a corrupt record as "start cold": warn and recompute.
func (s *Store) GetTable(fingerprint string) (*TableRecord, error) {
	rec, info, err := tableKind.get(s.dir, fingerprint, 0)
	if err != nil {
		return nil, err
	}
	rec.file = info
	return rec, nil
}

// TableFingerprints returns the fingerprint of every table record file
// under DIR/tables, sorted, without reading any record. A file whose
// name is not the escaped form of a fingerprint (TablePath) is not a
// record this store writes, and is left out.
func (s *Store) TableFingerprints() ([]string, error) {
	keys, err := tableKind.names(s.dir)
	if err != nil {
		return nil, err
	}
	fps := make([]string, len(keys))
	for i, k := range keys {
		fps[i] = k.id
	}
	return fps, nil
}

// tableSync is what a handle saw of one table record: the in-memory
// table version that matched it, and the record file's stat.
type tableSync struct {
	version uint64
	file    os.FileInfo
}

// NoteTableSynced records that the caller's in-memory table for
// rec.Fingerprint, at version, holds exactly rec's entries, where rec
// came from GetTable or PutTable on this handle. Until the table's
// version or the record file changes, TableSynced then reports that
// there is nothing to write back. version is opaque to the store; the
// caller must never reuse a value for different contents. The note is
// scoped to this handle and holds no rows.
func (s *Store) NoteTableSynced(rec *TableRecord, version uint64) {
	if rec == nil || rec.file == nil {
		return
	}
	s.tablesMu.Lock()
	defer s.tablesMu.Unlock()
	if s.synced == nil {
		s.synced = make(map[string]tableSync)
	}
	s.synced[rec.Fingerprint] = tableSync{version: version, file: rec.file}
}

// TableSynced reports whether the record for fingerprint is still the
// one this handle noted at the same version (NoteTableSynced): one
// os.Stat, no read. The file counts as unchanged when it is the same
// file (device and inode) with the same size and mtime; a record that
// another writer replaced or deleted is not synced.
func (s *Store) TableSynced(fingerprint string, version uint64) bool {
	s.tablesMu.Lock()
	seen, ok := s.synced[fingerprint]
	s.tablesMu.Unlock()
	if !ok || seen.version != version {
		return false
	}
	info, err := os.Stat(s.TablePath(fingerprint))
	return err == nil && os.SameFile(info, seen.file) &&
		info.Size() == seen.file.Size() && info.ModTime().Equal(seen.file.ModTime())
}
