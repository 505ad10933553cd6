package store

// A Put whose table the store already holds confirms the stored record
// instead of rewriting it. These tests pin what a confirmation keeps
// (bytes, inode, first Meta), what still rewrites, and that GC counts a
// confirmation as a save.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"
)

// TestPutConfirmsEqualRecord: re-putting the same table with other
// provenance leaves the file's bytes and inode alone, keeps the first
// Meta, and stamps the new record's Schema and Path as a write would.
// The stored record is either one this release wrote or one an older
// release wrote, whose Meta still carried the cache_hits/cache_misses
// counters: that record must decode to the same table and Meta and be
// confirmed as it stands, old keys and all, with no schema bump.
func TestPutConfirmsEqualRecord(t *testing.T) {
	for _, legacy := range []bool{false, true} {
		t.Run(fmt.Sprintf("legacy=%v", legacy), func(t *testing.T) {
			s, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			first, _ := sampleRecord("fig8", 3)
			if err := s.Put(first); err != nil {
				t.Fatal(err)
			}
			path := s.CellPath("fig8", 3)
			if legacy {
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				old := bytes.Replace(data, []byte(`"elapsed_ns"`), []byte(`"cache_hits":132,"cache_misses":15,"elapsed_ns"`), 1)
				if bytes.Equal(old, data) {
					t.Fatal("no elapsed_ns key to place the legacy counters before")
				}
				if err := os.WriteFile(path, old, 0o644); err != nil {
					t.Fatal(err)
				}
				got, err := s.Get("fig8", 3)
				if err != nil {
					t.Fatalf("legacy record does not decode: %v", err)
				}
				if _, err := got.DecodeRows(); err != nil {
					t.Fatalf("legacy record's rows do not decode: %v", err)
				}
				if got.Meta != first.Meta || fmt.Sprint(got.Rows) != fmt.Sprint(first.Rows) {
					t.Fatalf("legacy record decoded to Meta %+v rows %v, want %+v %v", got.Meta, got.Rows, first.Meta, first.Rows)
				}
			}
			before, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			beforeInfo, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}

			again, _ := sampleRecord("fig8", 3)
			again.Meta = Meta{Concurrency: 1, BatchRows: 7, ElapsedNs: 99}
			if err := s.Put(again); err != nil {
				t.Fatal(err)
			}
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			afterInfo, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, after) {
				t.Errorf("equal re-put rewrote the record:\n got %s\nwant %s", after, before)
			}
			if !os.SameFile(beforeInfo, afterInfo) {
				t.Error("equal re-put replaced the file (inode changed)")
			}
			got, err := s.Get("fig8", 3)
			if err != nil {
				t.Fatal(err)
			}
			if got.Meta != first.Meta {
				t.Errorf("stored Meta = %+v, want the first computation's %+v", got.Meta, first.Meta)
			}
			if again.Path != path || again.Schema != SchemaVersion {
				t.Errorf("confirmed record stamped path %q schema %d, want %q and %d", again.Path, again.Schema, path, SchemaVersion)
			}
			if again.Meta.SavedUnixNs != 0 {
				t.Errorf("confirmed record's Meta was restamped: %+v", again.Meta)
			}
		})
	}
}

// TestPutRewritesChangedRecord: any change to the table itself — rows,
// title, columns or notes — replaces the stored record.
func TestPutRewritesChangedRecord(t *testing.T) {
	for name, mutate := range map[string]func(*Record){
		"rows":    func(r *Record) { r.Rows[2][1] = "-2.25" },
		"title":   func(r *Record) { r.Title = "retitled" },
		"columns": func(r *Record) { r.Columns[0] = "A" },
		"notes":   func(r *Record) { r.Notes = append(r.Notes, "another note") },
	} {
		t.Run(name, func(t *testing.T) {
			s, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			first, _ := sampleRecord("fig8", 1)
			if err := s.Put(first); err != nil {
				t.Fatal(err)
			}
			changed, _ := sampleRecord("fig8", 1)
			mutate(changed)
			changed.Meta.BatchRows = 9
			if err := s.Put(changed); err != nil {
				t.Fatal(err)
			}
			got, err := s.Get("fig8", 1)
			if err != nil {
				t.Fatal(err)
			}
			if got.Title != changed.Title || fmt.Sprint(got.Columns, got.Rows, got.Notes) != fmt.Sprint(changed.Columns, changed.Rows, changed.Notes) {
				t.Errorf("changed %s not written: stored %+v", name, got)
			}
			if got.Meta.BatchRows != 9 {
				t.Errorf("changed %s kept the old Meta %+v", name, got.Meta)
			}
		})
	}
}

// TestPutRewritesLUTAndCorruptRecords: a stored record carrying the
// legacy LUT marker, a new record carrying it, and a corrupt stored
// record are all rewritten even when the table is the same.
func TestPutRewritesLUTAndCorruptRecords(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	lut, _ := sampleRecord("fig8", 1)
	lut.Meta.LUT = true
	if err := s.Put(lut); err != nil {
		t.Fatal(err)
	}
	exact, _ := sampleRecord("fig8", 1)
	if err := s.Put(exact); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Get("fig8", 1); err != nil || got.Meta.LUT {
		t.Fatalf("equal exact re-put over a LUT record: %+v, %v; want the LUT marker gone", got, err)
	}
	lutAgain, _ := sampleRecord("fig8", 1)
	lutAgain.Meta.LUT = true
	if err := s.Put(lutAgain); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Get("fig8", 1); err != nil || !got.Meta.LUT {
		t.Fatalf("LUT re-put over an equal exact record: %+v, %v; want it written", got, err)
	}

	path := s.CellPath("fig8", 2)
	if err := os.WriteFile(path, []byte("{\"schema\":1,\"id\":\"fig8\",\"se"), 0o644); err != nil {
		t.Fatal(err)
	}
	fresh, _ := sampleRecord("fig8", 2)
	if err := s.Put(fresh); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("fig8", 2); err != nil {
		t.Fatalf("corrupt record not rewritten: %v", err)
	}
}

// TestGCKeepsConfirmedCell: confirming a stale, unreferenced cell
// counts as a save, so a sweep inside the window keeps it; a sweep past
// the window removes it and forgets the confirmation.
func TestGCKeepsConfirmedCell(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	gcPut(t, s, "figS", 1, 1) // stale: saved at the epoch
	gcPut(t, s, "figS", 1, 0) // same table: confirmed, not rewritten
	if got, err := s.Get("figS", 1); err != nil || got.Meta.SavedUnixNs != 1 {
		t.Fatalf("re-put rewrote the stale cell: %+v, %v", got, err)
	}
	res, err := s.GC(GCPolicy{MinAge: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if res.Removed != 0 || res.Kept != 1 {
		t.Errorf("GC inside the window = %+v, want the confirmed cell kept", res)
	}
	if _, err := s.Get("figS", 1); err != nil {
		t.Fatalf("confirmed cell collected: %v", err)
	}
	res, err = s.GC(GCPolicy{MinAge: time.Hour, Now: time.Now().Add(2 * time.Hour)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Removed != 1 {
		t.Errorf("GC past the window = %+v, want the cell removed", res)
	}
	s.mu.Lock()
	left := len(s.confirmed)
	s.mu.Unlock()
	if left != 0 {
		t.Errorf("%d confirmation(s) left after the cell was collected, want 0", left)
	}
}

// TestGCConcurrentEqualReputs: GC racing Puts that re-put stale cells
// with equal tables never removes one of them — each Put either
// confirms the record under the lock GC re-reads it under, or finds it
// gone and writes it fresh (run under -race).
func TestGCConcurrentEqualReputs(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 4; g++ {
		for i := 0; i < 10; i++ {
			gcPut(t, s, "stale", int64(g*100+i), 1)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				gcPut(t, s, "stale", int64(g*100+i), 0) // equal table, SavedUnixNs 0
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
		t.Errorf("%d readable cells after concurrent equal re-puts and GC, want 40", n)
	}
	res, err := s.GC(GCPolicy{MinAge: time.Hour, Now: time.Now().Add(2 * time.Hour)})
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	left := len(s.confirmed)
	s.mu.Unlock()
	if res.Removed != 40 || left != 0 {
		t.Errorf("GC past the window removed %d cells and left %d confirmations, want 40 and 0", res.Removed, left)
	}
}

// TestGCRemovesOldTempFiles: a temp file a dead writer left behind —
// in cells/, tables/ or runs/ — is removed once it is older than the
// window; a young one, which may be a write in flight, stays even under
// a 1ns window, and so does a file the store never writes.
func TestGCRemovesOldTempFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var old, young, foreign []string
	for sub, rec := range map[string][2]string{
		"cells":  {"tab1__seed1.json", "tab1__seed2.json"},
		"tables": {"a1b2c3.json", "d4e5f6.json"},
		"runs":   {"run-000001.json", "run-000002.json"},
	} {
		d := filepath.Join(dir, sub)
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
		old = append(old, filepath.Join(d, rec[0]+".tmp123456"))
		young = append(young, filepath.Join(d, rec[1]+".tmp654321"))
		foreign = append(foreign, filepath.Join(d, "notes.txt.tmp1"))
	}
	for _, p := range slices.Concat(old, young, foreign) {
		if err := os.WriteFile(p, []byte(`{"schema":1,"id":"ta`), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	past := time.Now().Add(-2 * time.Hour)
	for _, p := range slices.Concat(old, foreign) {
		if err := os.Chtimes(p, past, past); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.GC(GCPolicy{MinAge: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if res.RemovedTemps != 3 || res.RemovedBytes != 60 || res.Scanned != 0 {
		t.Errorf("GC = %+v, want three 20-byte temp files removed and no cell scanned", res)
	}
	for _, p := range old {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("old temp file %s survived GC: %v", p, err)
		}
	}
	// A tiny window does not reach a temp file younger than tempMinAge:
	// it may still be renamed into place.
	if res, err := s.GC(GCPolicy{MinAge: time.Nanosecond}); err != nil || res.RemovedTemps != 0 {
		t.Errorf("GC with a 1ns window = %+v, %v; want the young temp files kept", res, err)
	}
	for _, p := range slices.Concat(young, foreign) {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("%s removed, want kept: %v", p, err)
		}
	}
}

// BenchmarkPutCell measures one cell Put onto a new key (a full atomic
// write) and onto a key already holding the same table (a read and a
// compare, no write).
func BenchmarkPutCell(b *testing.B) {
	b.Run("new", func(b *testing.B) {
		s, err := Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			rec := fleetCellRecord("fig15", int64(i))
			if err := s.Put(rec); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("equal", func(b *testing.B) {
		s, err := Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Put(fleetCellRecord("fig15", 1)); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.Put(fleetCellRecord("fig15", 1)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
