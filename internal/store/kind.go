package store

// The one record kind behind cells, response tables and run records.
// Each kind is a subdirectory of single-line JSON files, one per key,
// all written, read, listed and removed by the same code below.

import (
	"bytes"
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
)

// kind is one record kind. T is the record struct and P is *T, through
// which the shared code reaches the record's header.
type kind[T any, P interface {
	*T
	// header returns the record's schema field, its Path field, and its
	// key: an ID plus, for cells, a seed (0 for the other kinds).
	header() (schema *int, path *string, id string, seed int64)
}] struct {
	// sub is the subdirectory under the store root.
	sub string
	// schema is the version put stamps and decode requires.
	schema int
	// seeded selects the cell file name <id>__seed<n>.json over <id>.json.
	seeded bool
	// validate, when set, checks what the record carries beyond its
	// header: put refuses, and decode rejects, a record that fails it.
	validate func(P) error
}

// key identifies one record: an ID, plus a seed for cells.
type key struct {
	id   string
	seed int64
}

// file maps a key to its file name. The ID is path-escaped, so a
// hostile ID can never traverse or collide across directories.
func (k *kind[T, P]) file(id string, seed int64) string {
	if k.seeded {
		return fmt.Sprintf("%s__seed%d.json", url.PathEscape(id), seed)
	}
	return url.PathEscape(id) + ".json"
}

// path returns where the record for a key lives, whether or not it
// exists yet.
func (k *kind[T, P]) path(root, id string, seed int64) string {
	return filepath.Join(root, k.sub, k.file(id, seed))
}

// parse inverts file. It refuses any name file would not produce — temp
// files, foreign files, non-canonical escapes — so a listing holds only
// names this store writes.
func (k *kind[T, P]) parse(name string) (key, bool) {
	base, ok := strings.CutSuffix(name, ".json")
	if !ok {
		return key{}, false
	}
	var seed int64
	if k.seeded {
		i := strings.LastIndex(base, "__seed")
		if i < 0 {
			return key{}, false
		}
		var err error
		if seed, err = strconv.ParseInt(base[i+len("__seed"):], 10, 64); err != nil {
			return key{}, false
		}
		base = base[:i]
	}
	id, err := url.PathUnescape(base)
	if err != nil || id == "" || k.file(id, seed) != name {
		return key{}, false
	}
	return key{id, seed}, true
}

// put atomically persists one record (see writeFileAtomic), stamping
// its schema and path, and returns the written file's stat. When mu is
// non-nil, the rename alone runs under it.
func (k *kind[T, P]) put(root string, r P, mu *sync.Mutex) (os.FileInfo, error) {
	if r == nil {
		return nil, fmt.Errorf("store: nil %s record", k.sub)
	}
	schema, path, id, seed := r.header()
	if id == "" {
		return nil, fmt.Errorf("store: %s record has no ID", k.sub)
	}
	if k.validate != nil {
		if err := k.validate(r); err != nil {
			return nil, fmt.Errorf("store: %s (seed %d): %w", id, seed, err)
		}
	}
	*schema = k.schema
	line, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("store: encode %s (seed %d): %w", id, seed, err)
	}
	dir := filepath.Join(root, k.sub)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create %s: %w", dir, err)
	}
	p := filepath.Join(dir, k.file(id, seed))
	info, err := writeFileAtomic(p, append(line, '\n'), mu)
	if err != nil {
		return nil, fmt.Errorf("store: write %s (seed %d): %w", id, seed, err)
	}
	*path = p
	return info, nil
}

// get reads, decodes and label-checks the record for a key, and returns
// it with the stat of the very file read. A missing file is a
// *NotFoundError; a record that exists but is unreadable, truncated,
// unparseable, schema-mismatched, invalid or mislabelled is a
// *CorruptError naming the path. It never panics on hostile input.
func (k *kind[T, P]) get(root, id string, seed int64) (P, os.FileInfo, error) {
	p := k.path(root, id, seed)
	data, info, err := readFileStat(p)
	if os.IsNotExist(err) {
		return nil, nil, &NotFoundError{ID: id, Seed: seed, Path: p}
	}
	var r P
	if err == nil {
		r, err = k.decode(data)
	}
	if err == nil {
		if _, _, rid, rseed := r.header(); rid != id || rseed != seed {
			err = fmt.Errorf("record labelled %s (seed %d)", rid, rseed)
		}
	}
	if err != nil {
		return nil, nil, &CorruptError{ID: id, Seed: seed, Path: p, Err: err}
	}
	_, path, _, _ := r.header()
	*path = p
	return r, info, nil
}

// decode parses one record file: a single JSON line carrying this
// kind's schema version and a non-empty ID, that passes validate.
func (k *kind[T, P]) decode(data []byte) (P, error) {
	line := bytes.TrimRight(data, "\n")
	if len(line) == 0 {
		return nil, errors.New("empty record file")
	}
	if bytes.Contains(line, []byte("\n")) {
		return nil, errors.New("record file holds more than one line")
	}
	r := P(new(T))
	if err := json.Unmarshal(line, r); err != nil {
		return nil, fmt.Errorf("truncated or invalid JSON: %v", err)
	}
	if schema, _, id, _ := r.header(); *schema != k.schema {
		return nil, fmt.Errorf("schema version %d, want %d", *schema, k.schema)
	} else if id == "" {
		return nil, errors.New("record has no ID")
	}
	if k.validate != nil {
		if err := k.validate(r); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// names lists the keys of this kind's record files, sorted by ID then
// seed, without reading any record. A kind never written lists nothing.
func (k *kind[T, P]) names(root string) ([]key, error) {
	dir := filepath.Join(root, k.sub)
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: scan %s: %w", dir, err)
	}
	var keys []key
	for _, ent := range entries {
		if kk, ok := k.parse(ent.Name()); ok && !ent.IsDir() {
			keys = append(keys, kk)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].id != keys[j].id {
			return keys[i].id < keys[j].id
		}
		return keys[i].seed < keys[j].seed
	})
	return keys, nil
}

// temps lists the temp files writeFileAtomic left in this kind's
// directory: "<record file>.tmp<random>" names whose record part this
// kind could have written. Each is an orphan of a writer that died
// before its rename, or a write still in flight.
func (k *kind[T, P]) temps(root string) ([]os.FileInfo, error) {
	dir := filepath.Join(root, k.sub)
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: scan %s: %w", dir, err)
	}
	var out []os.FileInfo
	for _, ent := range entries {
		i := strings.LastIndex(ent.Name(), ".tmp")
		if i < 0 || ent.IsDir() {
			continue
		}
		if _, ok := k.parse(ent.Name()[:i]); !ok {
			continue
		}
		if info, err := ent.Info(); err == nil {
			out = append(out, info)
		}
	}
	return out, nil
}

// remove deletes the record for a key. Removing a missing record is a
// no-op.
func (k *kind[T, P]) remove(root, id string, seed int64) error {
	if err := os.Remove(k.path(root, id, seed)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: remove %s (seed %d): %w", id, seed, err)
	}
	return nil
}

// NotFoundError reports that no record exists for a key: a cell, a
// table fingerprint (Seed 0) or a run ID (Seed 0).
type NotFoundError struct {
	// ID and Seed identify the missing record; Path is where it would live.
	ID   string
	Seed int64
	Path string
}

// Error implements error.
func (e *NotFoundError) Error() string {
	return fmt.Sprintf("store: no record for %s (seed %d) at %s", e.ID, e.Seed, e.Path)
}

// IsNotFound reports whether err means "never stored" (as opposed to
// stored but unreadable), for every record kind.
func IsNotFound(err error) bool {
	var nf *NotFoundError
	return errors.As(err, &nf)
}

// CorruptError reports a record that exists but cannot be trusted:
// truncated, unparseable, schema-mismatched, or inconsistent with the
// key it was read for. It names the key and path so the caller can
// report exactly which file to recompute or delete.
type CorruptError struct {
	// ID and Seed identify the record read (Seed is 0 for tables and
	// runs); Path is the offending file.
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

// writeFileAtomic writes data to path via temp file + fsync + rename,
// then fsyncs the parent directory so the rename itself is durable. It
// returns the written file's stat, taken from the temp file before the
// rename: the rename keeps the inode, size and mtime, so the stat
// describes exactly the bytes this call wrote even if another writer
// replaces path at once. When mu is non-nil, only the rename runs under
// it; the write and both fsyncs stay outside.
func writeFileAtomic(path string, data []byte, mu *sync.Mutex) (os.FileInfo, error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return nil, err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	var info os.FileInfo
	if err == nil {
		info, err = tmp.Stat()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		if mu != nil {
			mu.Lock()
		}
		//lint:allow mutexio GC re-reads and unlinks a cell under the same lock, so a cell's rename must land wholly before that check or after the unlink; the write and the fsyncs stay outside
		err = os.Rename(tmp.Name(), path)
		if mu != nil {
			mu.Unlock()
		}
	}
	if err != nil {
		os.Remove(tmp.Name())
		return nil, err
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync() // best-effort: some filesystems refuse directory fsync
		d.Close()
	}
	return info, nil
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
