// Package store is the durable state under the experiment engine. It
// persists three kinds of record, each a self-describing,
// schema-versioned, single-line JSON file:
//
//   - cells: each (experiment, seed) result table, so replicated runs
//     survive restarts and grow seed sets incrementally instead of
//     recomputing every cell from scratch;
//   - tables: the memoized response table of each design fingerprint
//     (tables.go), so a fresh process starts warm;
//   - runs: the lifecycle of each run the service accepted (runs.go).
//
// Layout on disk (everything lives under one directory):
//
//	DIR/
//	  cells/<id>__seed<n>.json    one record per (experiment, seed) cell
//	  tables/<fingerprint>.json   one record per design's response table
//	  runs/<run-id>.json          one record per submitted run
//
// IDs are path-escaped in file names. The three kinds share one
// implementation (kind.go): the same atomic write, decoder, label check,
// directory listing and error types. There is no manifest: a directory
// listing is the index.
//
// Every write is crash-safe: a record is written to a temp file,
// fsync'd, then renamed into place, and the directory is fsync'd so the
// rename is durable. A reader observes either no file or one complete
// record, never a torn one. A writer that dies before its rename leaves
// only the temp file, which readers and listings ignore and GC removes
// once it is older than the retention window.
//
// A cell is written once per table, not once per computation: Put reads
// the stored record first and, when it already holds the same table,
// confirms it in place of a rewrite. Replacing a file costs far more
// than reading it on some filesystems (ext4 mounted with discard frees
// the old blocks inside the rename), and results are deterministic, so
// a recomputation usually reproduces exactly the stored table. The
// stored Meta then keeps the provenance of the first computation.
//
// Numeric cells are serialized as strconv 'g'/-1 strings rather than
// JSON numbers: that round-trips every finite float64 bit-exactly and
// carries NaN/±Inf (which encoding/json rejects as numbers), so a
// resumed run can reproduce a fresh run bit-for-bit.
//
// Cross-process writers: several processes (llama-serve and
// llama-bench runs, or fleet llama-worker processes saving their
// response tables, on a shared filesystem) may hold the same directory
// open and persist the same record concurrently. Fleet workers write
// only tables; cells are written by the process that runs the
// submission. Concurrent writes are safe by construction, not by
// locking: a cell's table is a pure function of (experiment, seed), so
// racing writers carry equal tables (their Meta may differ), the
// atomic rename means the last rename wins with the same table, and a
// writer that finds the table stored confirms it instead.
// The property test TestCrossProcessWriters drives two handles
// concurrently and checks exactly this.
package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"time"
)

// SchemaVersion is the record format this package writes. Get rejects
// records carrying any other version (they surface as a *CorruptError
// and the caller recomputes the cell).
const SchemaVersion = 1

// Meta carries the engine provenance of one stored record. It is
// informational: none of it feeds back into results, so two records of
// the same (experiment, seed) with different Meta still decode to the
// same table.
type Meta struct {
	// SavedUnixNs is the wall-clock time of the write that stored the
	// record. A Put that finds the same table already stored confirms
	// the record without rewriting it, so this and every other Meta
	// field keep the provenance of the first computation.
	SavedUnixNs int64 `json:"saved_unix_ns"`
	// Concurrency, ShardRows and BatchRows record the engine shape that
	// produced the table (outputs are bit-identical across all of them).
	Concurrency int  `json:"concurrency"`
	ShardRows   bool `json:"shard_rows"`
	BatchRows   int  `json:"batch_rows"`
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

// DecodeRows parses EncodeRows' string form back into float64 rows,
// bit-exact, NaN/±Inf included.
func DecodeRows(rows [][]string) ([][]float64, error) {
	out := make([][]float64, len(rows))
	for i, row := range rows {
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
	return out, nil
}

// DecodeRows decodes the record's rows, enforcing column arity. The
// result is memoized on the record (and shared across calls), so
// validation and consumption decode once.
func (r *Record) DecodeRows() ([][]float64, error) {
	if r.decoded != nil {
		return r.decoded, nil
	}
	for i, row := range r.Rows {
		if len(row) != len(r.Columns) {
			return nil, fmt.Errorf("row %d arity %d != %d columns", i, len(row), len(r.Columns))
		}
	}
	out, err := DecodeRows(r.Rows)
	if err != nil {
		return nil, err
	}
	r.decoded = out
	return out, nil
}

// cellKind stores cell records under DIR/cells. A record whose rows do
// not decode is never written and never served.
var cellKind = &kind[Record, *Record]{
	sub: "cells", schema: SchemaVersion, seeded: true,
	validate: func(r *Record) error { _, err := r.DecodeRows(); return err },
}

// header keys a cell record by its experiment ID and seed.
func (r *Record) header() (*int, *string, string, int64) { return &r.Schema, &r.Path, r.ID, r.Seed }

// Store is a durable results store rooted at one directory. Methods are
// safe for concurrent use.
type Store struct {
	dir string

	// mu orders each cell rename or confirmation against GC's re-read
	// and unlink of that cell, so a sweep never removes a record a Put
	// just persisted. It guards confirmed: per cell, when this handle
	// last confirmed the stored record (see Put and GC).
	mu        sync.Mutex
	confirmed map[key]time.Time

	// tablesMu guards synced: per table fingerprint, what this handle
	// last read or wrote for it (see NoteTableSynced). It holds no rows.
	tablesMu sync.Mutex
	synced   map[string]tableSync
}

// Open creates (if needed) and opens a store directory. It reads no
// record: damaged records are left in place and surface as
// *CorruptError on Get, so opening a damaged store never destroys
// evidence.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty directory")
	}
	cells := filepath.Join(dir, cellKind.sub)
	if err := os.MkdirAll(cells, 0o755); err != nil {
		return nil, fmt.Errorf("store: create %s: %w", cells, err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// CellPath returns the path the record for (id, seed) lives at, whether
// or not it exists yet.
//
//lint:allow unused test hook: experiments and fleet tests read and corrupt stored cells through it
func (s *Store) CellPath(id string, seed int64) string { return cellKind.path(s.dir, id, seed) }

// Put persists one cell record and stamps its Schema and Path.
//
// When the stored record for the same (experiment, seed) decodes and
// holds the same table — equal Title, Columns, Rows and Notes — and
// neither record carries the legacy Meta.LUT marker, Put confirms it
// instead of replacing it: nothing is written, the stored Meta keeps
// the first computation's provenance, and rec.Meta is left as given.
// The record is as durable as after a write, and GC counts the
// confirmation as a save of the cell.
//
// Otherwise Put atomically writes the record, stamping
// Meta.SavedUnixNs when unset (pinned stamps keep cross-process writers
// byte-identical). A missing, corrupt or different record is replaced.
// A record whose rows do not decode (DecodeRows) is refused, as Get
// would refuse to serve it.
func (s *Store) Put(rec *Record) error {
	if s.confirm(rec) {
		return nil
	}
	if rec != nil && rec.Meta.SavedUnixNs == 0 {
		rec.Meta.SavedUnixNs = time.Now().UnixNano()
	}
	_, err := cellKind.put(s.dir, rec, &s.mu)
	return err
}

// confirm reports whether the store already holds rec's table (see
// Put), and if so notes the time for GC and stamps rec as a write
// would. It runs under s.mu, as GC's re-read and unlink do, so a sweep
// either removes the cell before the read (and Put writes it) or sees
// the note.
func (s *Store) confirm(rec *Record) bool {
	if rec == nil || rec.Meta.LUT {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	old, _, err := cellKind.get(s.dir, rec.ID, rec.Seed)
	if err != nil || old.Meta.LUT || old.Title != rec.Title ||
		!slices.Equal(old.Columns, rec.Columns) || !slices.Equal(old.Notes, rec.Notes) ||
		!slices.EqualFunc(old.Rows, rec.Rows, slices.Equal[[]string]) {
		return false
	}
	if s.confirmed == nil {
		s.confirmed = make(map[key]time.Time)
	}
	s.confirmed[key{rec.ID, rec.Seed}] = time.Now()
	rec.Schema, rec.Path = old.Schema, old.Path
	return true
}

// Get loads and validates the record for (id, seed). It returns a
// *NotFoundError when the cell was never stored, and a *CorruptError —
// naming the experiment, seed and path — when a record exists but is
// truncated, unparseable, schema-mismatched, mislabelled, or carries
// rows that do not decode.
func (s *Store) Get(id string, seed int64) (*Record, error) {
	rec, _, err := cellKind.get(s.dir, id, seed)
	return rec, err
}

// tempMinAge is the least age at which GC removes a temp file, whatever
// the retention window: a write takes milliseconds between creating its
// temp file and renaming it, so a temp file this old is an orphan.
const tempMinAge = time.Minute

// GCPolicy controls one Store.GC sweep.
type GCPolicy struct {
	// MinAge is the retention window: only cells saved at least MinAge
	// before Now are candidates for removal. A cell counts as saved when
	// a Put wrote it or, on the same handle, confirmed it (found the same
	// table already stored). Recency stands in for liveness — a cell a
	// concurrent writer persisted moments ago is never collected, whether
	// or not its run record landed yet. Temp files a dead writer left in
	// cells/ are removed once their modification time is MinAge old, and
	// never younger than tempMinAge: a younger one may belong to a write
	// in flight, whose rename would then fail.
	MinAge time.Duration
	// Now anchors the age check; the zero value means time.Now(). Tests
	// pin it to exercise retention without sleeping.
	Now time.Time
}

// GCResult summarizes one GC sweep.
type GCResult struct {
	// Scanned counts the cell records considered.
	Scanned int `json:"scanned"`
	// Removed counts cell records deleted.
	Removed int `json:"removed"`
	// RemovedTemps counts orphaned temp files deleted: writes whose
	// process died before the rename.
	RemovedTemps int `json:"removed_temps"`
	// RemovedBytes is the disk space the sweep reclaimed: the on-disk
	// size of the removed records and temp files.
	RemovedBytes int64 `json:"removed_bytes"`
	// Kept counts cells retained — referenced by a run record, younger
	// than the retention window, or unreadable (kept as evidence).
	Kept int `json:"kept"`
}

// GC removes cell records that no run record references and that are
// older than the policy's retention window, so a long-lived server's
// disk stays bounded by its live history instead of growing with every
// spec it ever saw. A cell is referenced when any run record's spec
// covers its (experiment, seed); deleting a run record (DELETE
// /runs/{id}) is what releases its cells for a later sweep. A cell's
// age runs from the later of its record's Meta.SavedUnixNs and the
// last time a Put on this handle confirmed it. Removal can only ever
// cost recomputation, never correctness: a future run that wants a
// collected cell recomputes it bit-identically (determinism invariant
// 6). Safe for concurrent use with Put on the same handle: each
// candidate is re-read and removed under the lock Put's rename and
// confirmation take, so a cell persisted mid-sweep is seen fresh and
// kept. A cell that vanished since the listing (a concurrent sweep) is
// skipped without being counted as kept or removed. GC also removes
// orphaned temp files older than the window (see GCPolicy.MinAge), and
// forgets confirmations of removed cells and confirmations older than
// the window, so the handle's memory stays bounded too.
func (s *Store) GC(p GCPolicy) (GCResult, error) {
	now := p.Now
	if now.IsZero() {
		now = time.Now()
	}
	runs, err := s.ListRuns()
	if err != nil {
		return GCResult{}, err
	}
	referenced := make(map[key]struct{})
	for _, rr := range runs {
		for _, id := range rr.Spec.IDs {
			for _, seed := range rr.Spec.Seeds {
				referenced[key{id, seed}] = struct{}{}
			}
		}
	}
	keys, err := cellKind.names(s.dir)
	if err != nil {
		return GCResult{}, err
	}
	res := GCResult{Scanned: len(keys)}
	for _, k := range keys {
		if _, ok := referenced[k]; ok {
			res.Kept++
			continue
		}
		// The re-read and the unlink both run under s.mu (through the kind
		// helpers) so a Put's rename lands either before the re-read, and
		// its fresh SavedUnixNs vetoes removal, or after the unlink; and a
		// Put's confirmation is noted either before the re-read, and vetoes
		// removal, or after the unlink, when it finds no record to confirm.
		s.mu.Lock()
		rec, info, err := cellKind.get(s.dir, k.id, k.seed)
		switch {
		case IsNotFound(err):
			// Gone since the listing: neither kept nor removed.
		case err != nil || now.Sub(s.savedLocked(k, rec)) < p.MinAge:
			res.Kept++
		default:
			if err := cellKind.remove(s.dir, k.id, k.seed); err != nil {
				s.mu.Unlock()
				return res, err
			}
			delete(s.confirmed, k)
			res.Removed++
			res.RemovedBytes += info.Size()
		}
		s.mu.Unlock()
	}
	s.mu.Lock()
	for k, t := range s.confirmed {
		if now.Sub(t) >= p.MinAge {
			delete(s.confirmed, k)
		}
	}
	s.mu.Unlock()
	temps, err := cellKind.temps(s.dir)
	if err != nil {
		return res, err
	}
	for _, t := range temps {
		if age := now.Sub(t.ModTime()); age < p.MinAge || age < tempMinAge {
			continue
		}
		if err := os.Remove(filepath.Join(s.dir, cellKind.sub, t.Name())); err != nil {
			if os.IsNotExist(err) {
				continue // renamed into place or removed since the listing
			}
			return res, fmt.Errorf("store: remove temp file: %w", err)
		}
		res.RemovedTemps++
		res.RemovedBytes += t.Size()
	}
	return res, nil
}

// savedLocked returns when cell k was last saved: the later of its
// record's stamp and this handle's last confirmation of it. Callers
// hold s.mu.
func (s *Store) savedLocked(k key, rec *Record) time.Time {
	saved := time.Unix(0, rec.Meta.SavedUnixNs)
	if t, ok := s.confirmed[k]; ok && t.After(saved) {
		return t
	}
	return saved
}
