package store

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// readableCells counts the cells the store lists and Get serves.
func readableCells(t *testing.T, s *Store) int {
	t.Helper()
	keys, err := cellKind.names(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, k := range keys {
		if _, err := s.Get(k.id, k.seed); err == nil {
			n++
		}
	}
	return n
}

// sampleRecord builds a record whose cells cover every float64 shape the
// tables can contain: finite, non-representable fractions, denormals,
// negative zero, NaN and both infinities.
func sampleRecord(id string, seed int64) (*Record, [][]float64) {
	rows := [][]float64{
		{1.0 / 3.0, -0.0, 5e-324},
		{math.NaN(), math.Inf(1), math.Inf(-1)},
		{1e300, -2.5, 0.1 + 0.2},
	}
	return &Record{
		ID: id, Seed: seed, Title: "round trip",
		Columns: []string{"a", "b", "c"},
		Rows:    EncodeRows(rows),
		Notes:   []string{"a note"},
		Meta:    Meta{Concurrency: 4, ShardRows: true, BatchRows: 2, ElapsedNs: 12345},
	}, rows
}

// TestRoundTripBitExact: Put then Get must reproduce every cell's exact
// bit pattern, NaN and ±Inf included.
func TestRoundTripBitExact(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rec, rows := sampleRecord("fig99", 7)
	if err := s.Put(rec); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("fig99", 7)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != SchemaVersion || got.Title != "round trip" || len(got.Notes) != 1 {
		t.Errorf("record header mangled: %+v", got)
	}
	dec, err := got.DecodeRows()
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(rows) {
		t.Fatalf("decoded %d rows, want %d", len(dec), len(rows))
	}
	for ri := range rows {
		for ci := range rows[ri] {
			if math.Float64bits(dec[ri][ci]) != math.Float64bits(rows[ri][ci]) {
				t.Errorf("cell [%d][%d]: bits %x != %x (value %v vs %v)",
					ri, ci, math.Float64bits(dec[ri][ci]), math.Float64bits(rows[ri][ci]),
					dec[ri][ci], rows[ri][ci])
			}
		}
	}
}

// TestRecordIsSingleJSONLLine: the on-disk record is one self-describing
// JSONL line, and no manifest is written beside it.
func TestRecordIsSingleJSONLLine(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := sampleRecord("tab9", 3)
	if err := s.Put(rec); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(rec.Path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), "\n"); n != 1 || !strings.HasSuffix(string(data), "\n") {
		t.Errorf("record is not a single JSONL line (%d newlines)", n)
	}
	for _, want := range []string{`"schema":1`, `"id":"tab9"`, `"seed":3`, `"columns"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("record not self-describing, missing %s in %s", want, data)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "index.jsonl")); !os.IsNotExist(err) {
		t.Errorf("a manifest was written beside the record: %v", err)
	}
}

// TestGetNotFound: a missing cell is a *NotFoundError naming the key
// and the path it would live at, distinguishable from corruption.
func TestGetNotFound(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Get("fig1", 3)
	checkNotFound(t, err, NotFoundError{ID: "fig1", Seed: 3, Path: s.CellPath("fig1", 3)})
}

// checkNotFound asserts that err is a *NotFoundError with detail want,
// never a CorruptError, and that IsNotFound rejects nil and unrelated
// errors.
func checkNotFound(t *testing.T, err error, want NotFoundError) {
	t.Helper()
	var nf *NotFoundError
	if !IsNotFound(err) || !errors.As(err, &nf) {
		t.Fatalf("err = %v, want NotFoundError", err)
	}
	if *nf != want {
		t.Errorf("not-found detail %+v, want %+v", *nf, want)
	}
	var ce *CorruptError
	if errors.As(err, &ce) {
		t.Error("missing record misreported as corrupt")
	}
	if IsNotFound(nil) || IsNotFound(errors.New("other")) {
		t.Error("IsNotFound matched nil or an unrelated error")
	}
}

// TestTruncatedRecordIsCorrupt: a half-written record surfaces as a
// *CorruptError naming the experiment, seed and path — never a panic.
func TestTruncatedRecordIsCorrupt(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := sampleRecord("fig5", 2)
	if err := s.Put(rec); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(rec.Path)
	if err := os.WriteFile(rec.Path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = s.Get("fig5", 2)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want CorruptError", err)
	}
	if ce.ID != "fig5" || ce.Seed != 2 || ce.Path != rec.Path {
		t.Errorf("corrupt error does not name the cell: %+v", ce)
	}
	for _, want := range []string{"fig5", "seed 2", rec.Path} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// TestSchemaMismatchIsCorrupt: a record from a different format version
// must be rejected, not misparsed.
func TestSchemaMismatchIsCorrupt(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := sampleRecord("fig7", 4)
	if err := s.Put(rec); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(rec.Path)
	mangled := strings.Replace(string(data), `"schema":1`, `"schema":99`, 1)
	if mangled == string(data) {
		t.Fatal("failed to mangle schema version")
	}
	if err := os.WriteFile(rec.Path, []byte(mangled), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = s.Get("fig7", 4)
	var ce *CorruptError
	if !errors.As(err, &ce) || !strings.Contains(err.Error(), "schema version 99") {
		t.Fatalf("err = %v, want CorruptError naming the schema version", err)
	}
}

// TestMislabelledRecordIsCorrupt: a record whose body claims a different
// cell than its filename must not be served.
func TestMislabelledRecordIsCorrupt(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := sampleRecord("figA", 1)
	if err := s.Put(rec); err != nil {
		t.Fatal(err)
	}
	// Copy figA's bytes into figB's slot.
	data, _ := os.ReadFile(rec.Path)
	if err := os.WriteFile(s.CellPath("figB", 1), data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = s.Get("figB", 1)
	var ce *CorruptError
	if !errors.As(err, &ce) || !strings.Contains(err.Error(), "labelled figA") {
		t.Fatalf("err = %v, want CorruptError naming the mislabel", err)
	}
}

// TestReopenSeesRecords: a reopened store serves every earlier record.
func TestReopenSeesRecords(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 3; seed++ {
		rec, _ := sampleRecord("fig3", seed)
		if err := s.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n := readableCells(t, s2); n != 3 {
		t.Fatalf("reopened store serves %d cells, want 3", n)
	}
}

// TestPutOverwrites: re-putting a cell replaces the old record (the
// resume path re-persists recomputed cells over corrupt ones).
func TestPutOverwrites(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := sampleRecord("fig8", 5)
	if err := s.Put(rec); err != nil {
		t.Fatal(err)
	}
	rec2 := &Record{ID: "fig8", Seed: 5, Title: "v2", Columns: []string{"x"}, Rows: EncodeRows([][]float64{{42}})}
	if err := s.Put(rec2); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("fig8", 5)
	if err != nil {
		t.Fatal(err)
	}
	if n := readableCells(t, s); got.Title != "v2" || len(got.Columns) != 1 || n != 1 {
		t.Errorf("overwrite failed: %+v (%d readable cells)", got, n)
	}
}

// TestIDEscaping: experiment IDs with path-hostile characters stay inside
// the cells directory.
func TestIDEscaping(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	id := "../evil/..id"
	rec := &Record{ID: id, Seed: 1, Columns: []string{"x"}, Rows: EncodeRows([][]float64{{1}})}
	if err := s.Put(rec); err != nil {
		t.Fatal(err)
	}
	if filepath.Dir(rec.Path) != filepath.Join(dir, "cells") {
		t.Fatalf("record escaped the cells directory: %s", rec.Path)
	}
	if _, err := s.Get(id, 1); err != nil {
		t.Fatalf("escaped ID not retrievable: %v", err)
	}
}

// TestPutRejectsBadArity: a record whose rows disagree with its columns
// never reaches disk.
func TestPutRejectsBadArity(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rec := &Record{ID: "x", Seed: 1, Columns: []string{"a", "b"}, Rows: [][]string{{"1"}}}
	if err := s.Put(rec); err == nil || !strings.Contains(err.Error(), "arity") {
		t.Fatalf("err = %v, want arity error", err)
	}
}

// TestOpenEmptyDir rejects the degenerate configuration loudly.
func TestOpenEmptyDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("Open(\"\") should fail")
	}
}

// gcPut stores one minimal cell record stamped with the given save
// time, so GC retention tests never sleep.
func gcPut(t *testing.T, s *Store, id string, seed int64, saved int64) {
	t.Helper()
	rec := &Record{
		ID: id, Seed: seed, Title: id,
		Columns: []string{"x"},
		Rows:    EncodeRows([][]float64{{1}}),
		Meta:    Meta{SavedUnixNs: saved},
	}
	if err := s.Put(rec); err != nil {
		t.Fatal(err)
	}
}

// TestGCRemovesOnlyUnreferencedStaleCells is the store-lifecycle
// contract: a sweep removes exactly the cells that (a) no run record
// references and (b) aged past the retention window — referenced cells
// and fresh cells survive, and the manifest stays consistent across a
// reopen.
func TestGCRemovesOnlyUnreferencedStaleCells(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	now := int64(1_000_000 * int64(1e9)) // an arbitrary fixed epoch, ns
	old := now - int64(2e9*3600)         // two thousand hours earlier
	gcPut(t, s, "figA", 1, old)          // referenced by the run below: kept
	gcPut(t, s, "figA", 2, old)          // unreferenced + stale: removed
	gcPut(t, s, "figB", 1, old)          // unreferenced + stale: removed
	gcPut(t, s, "figC", 1, now)          // unreferenced but fresh: kept
	if err := s.PutRun(&RunRecord{
		ID:     "run-000001",
		Spec:   RunSpec{IDs: []string{"figA"}, Seeds: []int64{1}},
		Status: "done",
	}); err != nil {
		t.Fatal(err)
	}
	res, err := s.GC(GCPolicy{MinAge: time.Hour, Now: time.Unix(0, now)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scanned != 4 || res.Removed != 2 || res.Kept != 2 {
		t.Errorf("GC result = %+v, want scanned 4 / removed 2 / kept 2", res)
	}
	if res.RemovedBytes <= 0 {
		t.Errorf("RemovedBytes = %d, want > 0", res.RemovedBytes)
	}
	for _, c := range []struct {
		id       string
		seed     int64
		survives bool
	}{{"figA", 1, true}, {"figA", 2, false}, {"figB", 1, false}, {"figC", 1, true}} {
		_, err := s.Get(c.id, c.seed)
		if c.survives && err != nil {
			t.Errorf("%s seed %d: removed, want kept: %v", c.id, c.seed, err)
		}
		if !c.survives && !IsNotFound(err) {
			t.Errorf("%s seed %d: err = %v, want NotFound", c.id, c.seed, err)
		}
	}
	// A reopen sees the post-GC record set.
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n := readableCells(t, re); n != 2 {
		t.Errorf("reopened store serves %d cells after GC, want 2", n)
	}
	// Deleting the run releases its cell; everything stale then goes.
	if err := s.DeleteRun("run-000001"); err != nil {
		t.Fatal(err)
	}
	res, err = s.GC(GCPolicy{MinAge: time.Hour, Now: time.Unix(0, now)})
	if err != nil {
		t.Fatal(err)
	}
	if n := readableCells(t, s); res.Removed != 1 || n != 1 {
		t.Errorf("post-delete GC removed %d (%d readable cells), want 1 removed, 1 left", res.Removed, n)
	}
}

// TestGCEmptyAndConcurrentPut: a sweep over an empty store is a clean
// no-op, and GC racing fresh Puts never removes what it should keep
// (run under -race).
func TestGCEmptyAndConcurrentPut(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if res, err := s.GC(GCPolicy{MinAge: time.Hour}); err != nil || res.Scanned != 0 || res.Removed != 0 {
		t.Errorf("empty GC = %+v err %v, want clean zero sweep", res, err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				gcPut(t, s, "live", int64(g*100+i), 0) // SavedUnixNs 0 → stamped now
			}
		}(g)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if _, err := s.GC(GCPolicy{MinAge: time.Hour}); err != nil {
					t.Errorf("concurrent GC: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	if n := readableCells(t, s); n != 40 {
		t.Errorf("%d readable cells after concurrent put/GC, want 40 (fresh cells must survive)", n)
	}
}
