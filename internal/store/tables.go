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
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
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
	// GetTable/PutTable/ListTables, never serialized.
	Path string `json:"-"`
	// file is the stat of the file read or written at Path, for
	// NoteTableSynced.
	file os.FileInfo
}

// Entries returns the total entry count of the record.
func (r *TableRecord) Entries() int { return len(r.Axis) + len(r.QWP) }

// TableNotFoundError reports that no table record exists for a
// fingerprint.
type TableNotFoundError struct {
	// Fingerprint is the missing table; Path is where its record would
	// live.
	Fingerprint string
	Path        string
}

// Error implements error.
func (e *TableNotFoundError) Error() string {
	return fmt.Sprintf("store: no table record for %s at %s", e.Fingerprint, e.Path)
}

// IsTableNotFound reports whether err means "table never persisted" (as
// opposed to persisted but unreadable).
func IsTableNotFound(err error) bool {
	var nf *TableNotFoundError
	return errors.As(err, &nf)
}

// tablesDir returns the directory table records live in.
func (s *Store) tablesDir() string { return filepath.Join(s.dir, "tables") }

// TablePath returns the path the record for a fingerprint lives at,
// whether or not it exists yet. Fingerprints are path-escaped like cell
// IDs, so a hostile fingerprint can never traverse directories.
func (s *Store) TablePath(fingerprint string) string {
	return filepath.Join(s.tablesDir(), url.PathEscape(fingerprint)+".json")
}

// PutTable atomically persists one table record (temp file + fsync +
// rename, like cell records), stamping its Schema and Path, and its
// SavedUnixNs when unset (pinned stamps keep cross-process writers
// byte-identical). Table records are not manifest-tracked: ListTables scans the
// tables directory, so there is nothing to Sync.
func (s *Store) PutTable(rec *TableRecord) error {
	if rec == nil || rec.Fingerprint == "" {
		return errors.New("store: PutTable needs a record with a fingerprint")
	}
	if err := os.MkdirAll(s.tablesDir(), 0o755); err != nil {
		return fmt.Errorf("store: create %s: %w", s.tablesDir(), err)
	}
	rec.Schema = TableSchemaVersion
	if rec.SavedUnixNs == 0 {
		rec.SavedUnixNs = time.Now().UnixNano()
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: encode table %s: %w", rec.Fingerprint, err)
	}
	path := s.TablePath(rec.Fingerprint)
	info, err := writeFileAtomicStat(path, append(line, '\n'))
	if err != nil {
		return fmt.Errorf("store: write table %s: %w", rec.Fingerprint, err)
	}
	rec.Path, rec.file = path, info
	return nil
}

// GetTable loads and validates the record for a design fingerprint. It
// returns a *TableNotFoundError when the table was never persisted, and
// a *CorruptError (with Seed 0) naming the path when a record exists
// but is truncated, unparseable, schema-mismatched or mislabelled.
// Callers treat a corrupt record as "start cold": warn and recompute.
func (s *Store) GetTable(fingerprint string) (*TableRecord, error) {
	path := s.TablePath(fingerprint)
	data, info, err := readFileStat(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, &TableNotFoundError{Fingerprint: fingerprint, Path: path}
		}
		return nil, &CorruptError{ID: fingerprint, Path: path, Err: err}
	}
	rec, err := decodeTableRecord(data)
	if err != nil {
		return nil, &CorruptError{ID: fingerprint, Path: path, Err: err}
	}
	if rec.Fingerprint != fingerprint {
		return nil, &CorruptError{ID: fingerprint, Path: path,
			Err: fmt.Errorf("record labelled %s", rec.Fingerprint)}
	}
	rec.Path, rec.file = path, info
	return rec, nil
}

// readFileStat reads a whole file together with the stat of the very
// file read (not of whatever the path names a moment later).
func readFileStat(path string) ([]byte, os.FileInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	// Size the buffer from the stat, as os.ReadFile does; +1 lets the
	// read see EOF without growing.
	buf := bytes.NewBuffer(make([]byte, 0, info.Size()+1))
	if _, err := buf.ReadFrom(f); err != nil {
		return nil, nil, err
	}
	return buf.Bytes(), info, nil
}

// TableFingerprints returns the fingerprint of every table record file
// under DIR/tables, sorted, without reading any record. A file whose
// name is not the escaped form of a fingerprint (TablePath) is not a
// record this store writes, and is left out.
func (s *Store) TableFingerprints() ([]string, error) {
	entries, err := os.ReadDir(s.tablesDir())
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil // no table was ever persisted
		}
		return nil, fmt.Errorf("store: scan %s: %w", s.tablesDir(), err)
	}
	var fps []string
	for _, ent := range entries {
		base, ok := strings.CutSuffix(ent.Name(), ".json")
		if ent.IsDir() || !ok {
			continue
		}
		fp, err := url.PathUnescape(base)
		if err != nil || fp == "" || url.PathEscape(fp) != base {
			continue
		}
		fps = append(fps, fp)
	}
	sort.Strings(fps)
	return fps, nil
}

// ListTables returns every readable table record, sorted by
// fingerprint. Unreadable records are skipped — they stay on disk as
// evidence and surface as *CorruptError from GetTable — so a single
// damaged record never blocks warm-starting the rest.
func (s *Store) ListTables() ([]*TableRecord, error) {
	fps, err := s.TableFingerprints()
	if err != nil {
		return nil, err
	}
	var out []*TableRecord
	for _, fp := range fps {
		if rec, err := s.GetTable(fp); err == nil {
			out = append(out, rec)
		}
	}
	return out, nil
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

// decodeTableRecord parses one single-line table record, enforcing the
// schema version.
func decodeTableRecord(data []byte) (*TableRecord, error) {
	trimmed := strings.TrimRight(string(data), "\n")
	if trimmed == "" {
		return nil, errors.New("empty table record file")
	}
	if strings.Contains(trimmed, "\n") {
		return nil, errors.New("table record file holds more than one line")
	}
	var rec TableRecord
	if err := json.Unmarshal([]byte(trimmed), &rec); err != nil {
		return nil, fmt.Errorf("truncated or invalid JSON: %v", err)
	}
	if rec.Schema != TableSchemaVersion {
		return nil, fmt.Errorf("table schema version %d, want %d", rec.Schema, TableSchemaVersion)
	}
	if rec.Fingerprint == "" {
		return nil, errors.New("table record has no fingerprint")
	}
	return &rec, nil
}
