package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// tripBytes places src where kind k keeps its record in one store, reads
// it back through get, re-puts it into a second store through put, and
// returns the bytes the second store wrote.
func tripBytes[T any, P interface {
	*T
	header() (*int, *string, string, int64)
}](t *testing.T, k *kind[T, P], src []byte) []byte {
	t.Helper()
	rec, err := k.decode(src)
	if err != nil {
		t.Fatal(err)
	}
	_, _, id, seed := rec.header()
	from := t.TempDir()
	if err := os.MkdirAll(filepath.Join(from, k.sub), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(k.path(from, id, seed), src, 0o644); err != nil {
		t.Fatal(err)
	}
	got, _, err := k.get(from, id, seed)
	if err != nil {
		t.Fatal(err)
	}
	to := t.TempDir()
	if _, err := k.put(to, got, nil); err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(k.path(to, id, seed))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRecordBytesUnchanged pins all three on-disk formats: each seed
// record under testdata/, read through its kind and written back, comes
// out byte-identical to its source.
func TestRecordBytesUnchanged(t *testing.T) {
	for _, c := range []struct {
		file string
		trip func(t *testing.T, src []byte) []byte
	}{
		{"cell_record.json", func(t *testing.T, src []byte) []byte { return tripBytes(t, cellKind, src) }},
		{"cell_record_lut.json", func(t *testing.T, src []byte) []byte { return tripBytes(t, cellKind, src) }},
		{"table_record.json", func(t *testing.T, src []byte) []byte { return tripBytes(t, tableKind, src) }},
		{"run_record.json", func(t *testing.T, src []byte) []byte { return tripBytes(t, runKind, src) }},
	} {
		t.Run(c.file, func(t *testing.T) {
			src, err := os.ReadFile(filepath.Join("testdata", c.file))
			if err != nil {
				t.Fatal(err)
			}
			if out := c.trip(t, src); !bytes.Equal(out, src) {
				t.Errorf("re-put bytes differ from the source:\n got %s\nwant %s", out, src)
			}
		})
	}
}

// TestKindNames: a listing holds exactly the names the kind's codec
// writes — cells in their <id>__seed<n> form — and nothing else.
func TestKindNames(t *testing.T) {
	root := t.TempDir()
	cells := filepath.Join(root, "cells")
	if err := os.MkdirAll(cells, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"fig2a__seed3.json",
		"a__seed1__seed2.json", // an ID that itself contains "__seed"
		"a%2Fb__seed-1.json",
		"fig2a__seed3.json.tmp42", // a temp file
		"fig2a.json",              // no seed
		"fig2a__seed+3.json",      // not how the codec writes seed 3
		"a%2fb__seed1.json",       // not how the codec escapes "a/b"
		"__seed1.json",            // empty ID
	} {
		if err := os.WriteFile(filepath.Join(cells, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	keys, err := cellKind.names(root)
	if err != nil {
		t.Fatal(err)
	}
	want := []key{{"a/b", -1}, {"a__seed1", 2}, {"fig2a", 3}}
	if len(keys) != len(want) {
		t.Fatalf("names = %v, want %v", keys, want)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Errorf("names[%d] = %v, want %v", i, keys[i], want[i])
		}
	}
}

// TestPutRenameWaitsForGCLock is the regression for GC deleting a cell
// a concurrent Put had just rewritten: GC re-reads and unlinks a stale
// cell under s.mu, so Put's rename must wait for that lock. While the
// lock is held, a fresh Put of a stale cell must not land; once it is
// released, the fresh bytes must.
func TestPutRenameWaitsForGCLock(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	gcPut(t, s, "figR", 1, 1) // stale: saved at the epoch
	path := s.CellPath("figR", 1)
	stale, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	s.mu.Lock()
	done := make(chan error, 1)
	go func() {
		done <- s.Put(&Record{ID: "figR", Seed: 1, Title: "fresh",
			Columns: []string{"x"}, Rows: EncodeRows([][]float64{{2}})})
	}()
	time.Sleep(250 * time.Millisecond)
	//lint:allow mutexio the test holds the lock on purpose, to show the rename waits for it
	held, err := os.ReadFile(path)
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(held, stale) {
		t.Errorf("a Put renamed over the cell while s.mu was held:\n got %s\nwant %s", held, stale)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("figR", 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Title != "fresh" {
		t.Errorf("after the lock was released the cell holds %q, want the fresh record", got.Title)
	}
}
