// Package store is the durable results store under the experiment
// engine: it persists each (experiment, seed) cell's table as a
// self-describing, schema-versioned JSONL record so replicated runs can
// survive restarts and grow seed sets incrementally instead of
// recomputing every cell from scratch.
//
// Layout on disk (everything lives under one directory):
//
//	DIR/
//	  index.jsonl                 one line per stored record (manifest)
//	  cells/<id>__seed<n>.json    one self-describing record per cell
//
// Every write is crash-safe: a record is written to a temp file,
// fsync'd, then renamed into place, and the manifest is rewritten the
// same way after each put. The manifest is purely derived state — Open
// rebuilds it by scanning the cells directory, so a corrupt or missing
// index never loses records.
//
// Numeric cells are serialized as strconv 'g'/-1 strings rather than
// JSON numbers: that round-trips every finite float64 bit-exactly and
// carries NaN/±Inf (which encoding/json rejects as numbers), so a
// resumed run can reproduce a fresh run bit-for-bit.
//
// Cross-process writers: several processes (llama-serve plus fleet
// llama-worker processes on a shared filesystem) may hold the same
// directory open and persist the same cell concurrently. That is safe
// by construction, not by locking: a record is a pure function of
// (experiment, seed), so racing writers produce identical bytes, and
// the atomic rename means the last rename wins with the same content —
// a reader observes either no file or one complete valid record, never
// a torn one. Each process's index.jsonl rewrite races the others' the
// same way; since the manifest is derived state rebuilt by Open, a
// stale manifest from the losing writer costs nothing. The property
// test TestCrossProcessWriters drives two handles concurrently and
// checks exactly these invariants.
package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// SchemaVersion is the record format this package writes. Get rejects
// records carrying any other version (they surface as a *CorruptError
// and the caller recomputes the cell).
const SchemaVersion = 1

// Meta carries the engine/cache provenance of one stored record. It is
// informational: none of it feeds back into results, so two records of
// the same (experiment, seed) with different Meta still decode to the
// same table.
type Meta struct {
	// SavedUnixNs is the wall-clock write time.
	SavedUnixNs int64 `json:"saved_unix_ns"`
	// Concurrency, ShardRows and BatchRows record the engine shape that
	// produced the table (outputs are bit-identical across all of them).
	Concurrency int  `json:"concurrency"`
	ShardRows   bool `json:"shard_rows"`
	BatchRows   int  `json:"batch_rows"`
	// CacheHits and CacheMisses are the response-cache lookups the cell
	// performed, when the run could attribute them (single-worker runs).
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	// ElapsedNs is the compute time the cell cost when it was computed.
	ElapsedNs int64 `json:"elapsed_ns"`
	// LUT is a legacy read-only marker: older releases had an
	// approximate interpolated-lookup mode and set it on the cells that
	// mode computed. Such cells are not bit-identical to exact
	// computation, so resume runs never reuse them (they are recomputed
	// instead) — the store must never silently launder approximate rows
	// into an exact run. Nothing sets it any more.
	LUT bool `json:"lut,omitempty"`
}

// Record is the self-describing persisted form of one (experiment,
// seed) result table.
type Record struct {
	// Schema is the record format version (SchemaVersion when written by
	// this package).
	Schema int `json:"schema"`
	// ID and Seed identify the cell.
	ID   string `json:"id"`
	Seed int64  `json:"seed"`
	// Title is the experiment's display title.
	Title string `json:"title"`
	// Columns labels the numeric columns.
	Columns []string `json:"columns"`
	// Rows is the table body; every cell is a strconv 'g'/-1 string (see
	// the package comment for why not JSON numbers).
	Rows [][]string `json:"rows"`
	// Notes carries the table's free-form notes.
	Notes []string `json:"notes,omitempty"`
	// Meta is the engine/cache provenance of the record.
	Meta Meta `json:"meta"`

	// Path is where the record was read from or written to; set by Get
	// and Put, never serialized.
	Path string `json:"-"`

	// decoded memoizes DecodeRows so Get's validation decode is reused by
	// the caller's decode instead of parsing every cell twice.
	decoded [][]float64
}

// EncodeRows converts a numeric table into the lossless string form
// Record.Rows carries.
func EncodeRows(rows [][]float64) [][]string {
	out := make([][]string, len(rows))
	for i, row := range rows {
		enc := make([]string, len(row))
		for j, v := range row {
			enc[j] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		out[i] = enc
	}
	return out
}

// DecodeRows parses the record's string cells back into float64 rows,
// enforcing column arity. The round trip is bit-exact for finite
// values and preserves NaN/±Inf. The result is memoized on the record
// (and shared across calls), so validation and consumption decode once.
func (r *Record) DecodeRows() ([][]float64, error) {
	if r.decoded != nil {
		return r.decoded, nil
	}
	out := make([][]float64, len(r.Rows))
	for i, row := range r.Rows {
		if len(row) != len(r.Columns) {
			return nil, fmt.Errorf("row %d has %d cells, want %d columns", i, len(row), len(r.Columns))
		}
		dec := make([]float64, len(row))
		for j, s := range row {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return nil, fmt.Errorf("row %d col %d: non-numeric cell %q", i, j, s)
			}
			dec[j] = v
		}
		out[i] = dec
	}
	r.decoded = out
	return out, nil
}

// NotFoundError reports that no record exists for a cell.
type NotFoundError struct {
	// ID and Seed identify the missing cell; Path is where it would live.
	ID   string
	Seed int64
	Path string
}

// Error implements error.
func (e *NotFoundError) Error() string {
	return fmt.Sprintf("store: no record for %s (seed %d) at %s", e.ID, e.Seed, e.Path)
}

// IsNotFound reports whether err means "cell not stored" (as opposed to
// stored but unreadable).
func IsNotFound(err error) bool {
	var nf *NotFoundError
	return errors.As(err, &nf)
}

// CorruptError reports a record that exists but cannot be trusted:
// truncated, unparseable, schema-mismatched, or inconsistent with the
// cell it claims to be. It names the experiment, seed and path so the
// caller can report exactly which file to recompute or delete.
type CorruptError struct {
	// ID and Seed identify the cell the record was read for; Path is the
	// offending file.
	ID   string
	Seed int64
	Path string
	// Err is the underlying defect.
	Err error
}

// Error implements error.
func (e *CorruptError) Error() string {
	return fmt.Sprintf("store: corrupt record for %s (seed %d) at %s: %v", e.ID, e.Seed, e.Path, e.Err)
}

// Unwrap returns the underlying defect.
func (e *CorruptError) Unwrap() error { return e.Err }

// indexEntry is one manifest line in index.jsonl.
type indexEntry struct {
	Schema int    `json:"schema"`
	ID     string `json:"id"`
	Seed   int64  `json:"seed"`
	File   string `json:"file"`
	Rows   int    `json:"rows"`
}

// Store is a durable results store rooted at one directory. Methods are
// safe for concurrent use.
type Store struct {
	dir string

	mu    sync.Mutex
	index map[string]indexEntry // keyed by cell filename
	// dirty marks manifest entries not yet flushed to index.jsonl; Put
	// defers the manifest write so a batch of puts costs one rewrite.
	dirty bool

	// tablesMu guards synced: per table fingerprint, what this handle
	// last read or wrote for it (see NoteTableSynced). It holds no rows.
	tablesMu sync.Mutex
	synced   map[string]tableSync
}

// Open creates (if needed) and opens a store directory, rebuilding the
// in-memory manifest from the records on disk. Records that fail to
// parse are left in place — they surface as *CorruptError on Get — so
// opening a damaged store never destroys evidence.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty directory")
	}
	cells := filepath.Join(dir, "cells")
	if err := os.MkdirAll(cells, 0o755); err != nil {
		return nil, fmt.Errorf("store: create %s: %w", cells, err)
	}
	s := &Store{dir: dir, index: make(map[string]indexEntry)}
	entries, err := os.ReadDir(cells)
	if err != nil {
		return nil, fmt.Errorf("store: scan %s: %w", cells, err)
	}
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		rec, err := readRecord(filepath.Join(cells, name))
		if err != nil {
			continue // unreadable record: visible to Get, absent from the manifest
		}
		s.index[name] = indexEntry{
			Schema: rec.Schema, ID: rec.ID, Seed: rec.Seed,
			File: filepath.Join("cells", name), Rows: len(rec.Rows),
		}
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Len returns the number of readable records in the store.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// CellPath returns the path the record for (id, seed) lives at, whether
// or not it exists yet.
func (s *Store) CellPath(id string, seed int64) string {
	return filepath.Join(s.dir, "cells", cellFile(id, seed))
}

// cellFile maps a cell to its filename; the ID is path-escaped so
// experiment IDs can never traverse or collide across directories.
func cellFile(id string, seed int64) string {
	return fmt.Sprintf("%s__seed%d.json", url.PathEscape(id), seed)
}

// Put atomically persists one record: temp file + fsync + rename. The
// record's Schema is stamped with SchemaVersion and its Path with the
// final location. The index.jsonl manifest write is deferred — call
// Sync after a batch of puts to flush it in one rewrite (the manifest
// is derived state rebuilt by Open, so a missed Sync costs nothing but
// manifest freshness, never records).
func (s *Store) Put(rec *Record) error {
	if rec == nil || rec.ID == "" {
		return errors.New("store: Put needs a record with an ID")
	}
	for i, row := range rec.Rows {
		if len(row) != len(rec.Columns) {
			return fmt.Errorf("store: %s (seed %d): row %d arity %d != %d columns",
				rec.ID, rec.Seed, i, len(row), len(rec.Columns))
		}
	}
	rec.Schema = SchemaVersion
	if rec.Meta.SavedUnixNs == 0 {
		rec.Meta.SavedUnixNs = time.Now().UnixNano()
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: encode %s (seed %d): %w", rec.ID, rec.Seed, err)
	}
	name := cellFile(rec.ID, rec.Seed)
	path := filepath.Join(s.dir, "cells", name)
	if err := writeFileAtomic(path, append(line, '\n')); err != nil {
		return fmt.Errorf("store: write %s (seed %d): %w", rec.ID, rec.Seed, err)
	}
	rec.Path = path

	s.mu.Lock()
	s.index[name] = indexEntry{
		Schema: rec.Schema, ID: rec.ID, Seed: rec.Seed,
		File: filepath.Join("cells", name), Rows: len(rec.Rows),
	}
	s.dirty = true
	s.mu.Unlock()
	return nil
}

// Sync flushes the manifest to index.jsonl (atomic temp-file + fsync +
// rename) if any Put happened since the last flush. One Sync after a
// batch of puts keeps manifest maintenance O(records) instead of
// O(records²).
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.dirty {
		return nil
	}
	if err := s.writeIndexLocked(); err != nil {
		return err
	}
	s.dirty = false
	return nil
}

// GCPolicy controls one Store.GC sweep.
type GCPolicy struct {
	// MinAge is the retention window: only cells saved at least MinAge
	// before Now are candidates for removal. Recency stands in for
	// liveness — a cell a concurrent writer persisted moments ago is
	// never collected, whether or not its run record landed yet.
	MinAge time.Duration
	// Now anchors the age check; the zero value means time.Now(). Tests
	// pin it to exercise retention without sleeping.
	Now time.Time
}

// GCResult summarizes one GC sweep.
type GCResult struct {
	// Scanned counts the cell records considered.
	Scanned int `json:"scanned"`
	// Removed counts cell records deleted; RemovedBytes is their total
	// on-disk size.
	Removed int `json:"removed"`
	// RemovedBytes is the disk space the sweep reclaimed.
	RemovedBytes int64 `json:"removed_bytes"`
	// Kept counts cells retained — referenced by a run record, or
	// younger than the retention window.
	Kept int `json:"kept"`
}

// GC removes cell records that no run record references and that are
// older than the policy's retention window, so a long-lived server's
// disk stays bounded by its live history instead of growing with every
// spec it ever saw. A cell is referenced when any run record's spec
// covers its (experiment, seed); deleting a run record (DELETE
// /runs/{id}) is what releases its cells for a later sweep. Removal can
// only ever cost recomputation, never correctness: a future run that
// wants a collected cell recomputes it bit-identically (determinism
// invariant 6). Safe for concurrent use with Put — each candidate is
// re-read under the store lock immediately before removal, so a cell
// re-written mid-sweep is seen fresh and kept.
func (s *Store) GC(p GCPolicy) (GCResult, error) {
	now := p.Now
	if now.IsZero() {
		now = time.Now()
	}
	runs, err := s.ListRuns()
	if err != nil {
		return GCResult{}, err
	}
	referenced := make(map[string]struct{})
	for _, rr := range runs {
		for _, id := range rr.Spec.IDs {
			for _, seed := range rr.Spec.Seeds {
				referenced[cellFile(id, seed)] = struct{}{}
			}
		}
	}
	s.mu.Lock()
	names := make([]string, 0, len(s.index))
	for name := range s.index {
		names = append(names, name)
	}
	s.mu.Unlock()
	sort.Strings(names)
	res := GCResult{Scanned: len(names)}
	for _, name := range names {
		if _, ok := referenced[name]; ok {
			res.Kept++
			continue
		}
		path := filepath.Join(s.dir, "cells", name)
		s.mu.Lock()
		if _, ok := s.index[name]; !ok {
			s.mu.Unlock()
			continue // removed by a concurrent sweep
		}
		// Re-read under the lock: a concurrent Put may have just renamed a
		// fresh record into place, and a fresh SavedUnixNs must veto removal.
		rec, err := readRecord(path)
		if err != nil || now.Sub(time.Unix(0, rec.Meta.SavedUnixNs)) < p.MinAge {
			s.mu.Unlock()
			res.Kept++
			continue
		}
		var size int64
		//lint:allow mutexio the re-check-and-remove must stay under s.mu so a racing in-process Put cannot land between the veto check and the unlink (TestGCEmptyAndConcurrentPut)
		if fi, err := os.Stat(path); err == nil {
			size = fi.Size()
		}
		//lint:allow mutexio removal under s.mu is the GC veto contract: a fresh Put either lands before the lock (and vetoes above) or after the unlink (and survives)
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			s.mu.Unlock()
			return res, fmt.Errorf("store: gc remove %s: %w", path, err)
		}
		delete(s.index, name)
		s.dirty = true
		s.mu.Unlock()
		res.Removed++
		res.RemovedBytes += size
	}
	return res, s.Sync()
}

// Get loads and validates the record for (id, seed). It returns a
// *NotFoundError when the cell was never stored, and a *CorruptError —
// naming the experiment, seed and path — when a record exists but is
// truncated, unparseable, schema-mismatched, mislabelled, or carries
// rows that do not decode. It never panics on hostile input.
func (s *Store) Get(id string, seed int64) (*Record, error) {
	path := s.CellPath(id, seed)
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, &NotFoundError{ID: id, Seed: seed, Path: path}
		}
		return nil, &CorruptError{ID: id, Seed: seed, Path: path, Err: err}
	}
	rec, err := decodeRecord(data)
	if err != nil {
		return nil, &CorruptError{ID: id, Seed: seed, Path: path, Err: err}
	}
	if rec.ID != id || rec.Seed != seed {
		return nil, &CorruptError{ID: id, Seed: seed, Path: path,
			Err: fmt.Errorf("record labelled %s (seed %d)", rec.ID, rec.Seed)}
	}
	if _, err := rec.DecodeRows(); err != nil {
		return nil, &CorruptError{ID: id, Seed: seed, Path: path, Err: err}
	}
	rec.Path = path
	return rec, nil
}

// readRecord loads and structurally validates one record file.
func readRecord(path string) (*Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeRecord(data)
}

// decodeRecord parses one JSONL record, enforcing the single-line shape,
// the schema version and a non-empty ID.
func decodeRecord(data []byte) (*Record, error) {
	trimmed := strings.TrimRight(string(data), "\n")
	if trimmed == "" {
		return nil, errors.New("empty record file")
	}
	if strings.Contains(trimmed, "\n") {
		return nil, errors.New("record file holds more than one line")
	}
	var rec Record
	if err := json.Unmarshal([]byte(trimmed), &rec); err != nil {
		return nil, fmt.Errorf("truncated or invalid JSON: %v", err)
	}
	if rec.Schema != SchemaVersion {
		return nil, fmt.Errorf("schema version %d, want %d", rec.Schema, SchemaVersion)
	}
	if rec.ID == "" {
		return nil, errors.New("record has no ID")
	}
	return &rec, nil
}

// writeIndexLocked rewrites index.jsonl (sorted by id, then seed) via
// the same atomic temp-file + fsync + rename path records use. Callers
// hold s.mu.
func (s *Store) writeIndexLocked() error {
	entries := make([]indexEntry, 0, len(s.index))
	for _, e := range s.index {
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].ID != entries[j].ID {
			return entries[i].ID < entries[j].ID
		}
		return entries[i].Seed < entries[j].Seed
	})
	var sb strings.Builder
	for _, e := range entries {
		line, err := json.Marshal(e)
		if err != nil {
			return fmt.Errorf("store: encode index: %w", err)
		}
		sb.Write(line)
		sb.WriteByte('\n')
	}
	if err := writeFileAtomic(filepath.Join(s.dir, "index.jsonl"), []byte(sb.String())); err != nil {
		return fmt.Errorf("store: write index: %w", err)
	}
	return nil
}

// writeFileAtomic writes data to path via temp file + fsync + rename,
// then fsyncs the parent directory so the rename itself is durable.
func writeFileAtomic(path string, data []byte) error {
	_, err := writeFileAtomicStat(path, data)
	return err
}

// writeFileAtomicStat is writeFileAtomic that also returns the written
// file's stat, taken from the temp file before the rename: the rename
// keeps the inode, size and mtime, so the stat describes exactly the
// bytes this call wrote even if another writer replaces path at once.
func writeFileAtomicStat(path string, data []byte) (os.FileInfo, error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return nil, err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return nil, err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return nil, err
	}
	info, err := tmp.Stat()
	if err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return nil, err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return nil, err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return nil, err
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync() // best-effort: some filesystems refuse directory fsync
		d.Close()
	}
	return info, nil
}
