package store

// Cross-process writer property: fleet deployments point several
// llama-worker processes at one shared store directory, so the same
// cell can be persisted by racing writers. Because records are a pure
// function of (experiment, seed) and every write is temp-file + fsync +
// rename, the race must resolve to exactly one valid, byte-identical
// record per cell — never a torn read. Two Store handles on one
// directory stand in for two processes here (each has its own mutex, so
// nothing is serialized between them except the filesystem, exactly as
// across processes).

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// fleetCellRecord builds the deterministic record two racing workers
// would both compute for one cell: same rows, same pinned Meta, so the
// encoded bytes are identical no matter who writes.
func fleetCellRecord(id string, seed int64) *Record {
	var rows [][]float64
	for i := 0; i < 4; i++ {
		v := math.Sin(float64(i)*1.3) * float64(seed+1)
		edge := 0.0
		if i == 1 {
			edge = math.NaN()
		} else if i == 2 {
			edge = math.Inf(-1)
		}
		rows = append(rows, []float64{float64(i), v, edge})
	}
	return &Record{
		ID:      id,
		Seed:    seed,
		Title:   "cross-process fixture",
		Columns: []string{"i", "value", "edge"},
		Rows:    EncodeRows(rows),
		// Pinned: Put only stamps SavedUnixNs when zero, and a wall-clock
		// stamp would make the two writers' bytes differ.
		Meta: Meta{SavedUnixNs: 1_700_000_000_000_000_000, Concurrency: 1},
	}
}

// TestCrossProcessWriters: two handles on one directory persist the
// same cells concurrently; afterwards every cell has exactly one valid
// record with the reference bytes, a fresh handle reads each one, and
// no temp files leak.
func TestCrossProcessWriters(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	type cell struct {
		id   string
		seed int64
	}
	var cells []cell
	for _, id := range []string{"fig15", "fig16", "tab1"} {
		for seed := int64(1); seed <= 4; seed++ {
			cells = append(cells, cell{id, seed})
		}
	}

	// Reference bytes: what a single writer produces for each cell.
	refDir := t.TempDir()
	ref, err := Open(refDir)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[cell][]byte)
	for _, cl := range cells {
		rec := fleetCellRecord(cl.id, cl.seed)
		if err := ref.Put(rec); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(ref.CellPath(cl.id, cl.seed))
		if err != nil {
			t.Fatal(err)
		}
		want[cl] = data
	}

	// Both "processes" write every cell several times, concurrently.
	var wg sync.WaitGroup
	for _, st := range []*Store{a, b} {
		for rep := 0; rep < 3; rep++ {
			wg.Add(1)
			go func(st *Store) {
				defer wg.Done()
				for _, cl := range cells {
					if err := st.Put(fleetCellRecord(cl.id, cl.seed)); err != nil {
						t.Errorf("put %s/seed%d: %v", cl.id, cl.seed, err)
					}
				}
			}(st)
		}
	}
	wg.Wait()

	// Every cell file holds exactly the reference bytes — rename is
	// atomic, so a reader can never observe a torn or interleaved record.
	for _, cl := range cells {
		data, err := os.ReadFile(a.CellPath(cl.id, cl.seed))
		if err != nil {
			t.Fatalf("read %s/seed%d: %v", cl.id, cl.seed, err)
		}
		if !bytes.Equal(data, want[cl]) {
			t.Errorf("%s/seed%d: bytes differ from single-writer reference", cl.id, cl.seed)
		}
	}

	// No temp files or extra records leaked.
	entries, err := os.ReadDir(filepath.Join(dir, "cells"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(cells) {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Errorf("cells dir has %d entries, want %d: %v", len(entries), len(cells), names)
	}

	// A fresh Open (the next process) sees every cell exactly once and
	// Get round-trips it.
	fresh, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n := readableCells(t, fresh); n != len(cells) {
		t.Fatalf("fresh open: %d records, want %d", n, len(cells))
	}
	for _, cl := range cells {
		rec, err := fresh.Get(cl.id, cl.seed)
		if err != nil {
			t.Fatalf("get %s/seed%d: %v", cl.id, cl.seed, err)
		}
		if _, err := rec.DecodeRows(); err != nil {
			t.Errorf("decode %s/seed%d: %v", cl.id, cl.seed, err)
		}
	}
}
