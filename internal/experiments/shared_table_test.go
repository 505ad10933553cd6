package experiments

// Run-level contracts of the design-keyed response tables: sharing
// across surfaces and persistence across processes must be invisible in
// the output bytes (determinism invariant 10), fig15's per-distance
// surfaces must actually reuse one table, cells marked by the legacy
// LUT mode must never be resumed as exact, and the load/save glue must
// survive corrupt records.
// Run under -race in CI.

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/llama-surface/llama/internal/metasurface"
	"github.com/llama-surface/llama/internal/store"
	"github.com/llama-surface/llama/internal/units"
)

// TestSharedTableTransparent is the acceptance contract of the shared
// response tables: for seeds {1, 7, 42} at 1 and 8 workers, a run
// answering from freshly shared tables AND a run warm-started purely
// from tables persisted by an earlier process must both be bit-identical
// to the uncached reference.
func TestSharedTableTransparent(t *testing.T) {
	ctx := context.Background()
	ids := []string{"fig16", "tab1"}
	seeds := []int64{1, 7, 42}

	// Uncached references, one per seed (global switch off, serial).
	metasurface.SetCaching(false)
	ref := map[int64][]*Result{}
	for _, seed := range seeds {
		rep, err := Execute(ctx, Options{Concurrency: 1, IDs: ids, Seeds: []int64{seed}})
		if err != nil {
			metasurface.SetCaching(true)
			t.Fatalf("uncached reference seed %d: %v", seed, err)
		}
		ref[seed] = rep.Results
	}
	metasurface.SetCaching(true)

	dir := t.TempDir()
	for pass, label := range []string{"fresh-shared", "persisted-reloaded"} {
		for _, workers := range []int{1, 8} {
			for _, seed := range seeds {
				// Each cell starts from an empty registry: pass 0 computes
				// into fresh shared tables (and persists them via StoreDir),
				// pass 1 is warm-started from disk alone.
				metasurface.ResetResponseTables()
				metasurface.ResetGlobalCacheStats()
				rep, err := Execute(ctx, Options{
					IDs: ids, Seeds: []int64{seed},
					Concurrency: workers, ShardRows: workers > 1,
					StoreDir: dir,
				})
				if err != nil {
					t.Fatalf("%s seed %d workers %d: %v", label, seed, workers, err)
				}
				for _, w := range rep.StoreWarnings {
					t.Errorf("%s seed %d workers %d: unexpected store warning: %s", label, seed, workers, w)
				}
				if len(rep.Results) != len(ref[seed]) {
					t.Fatalf("%s seed %d workers %d: %d results, want %d",
						label, seed, workers, len(rep.Results), len(ref[seed]))
				}
				for i := range rep.Results {
					if !sameResult(rep.Results[i], ref[seed][i]) {
						t.Errorf("%s seed %d workers %d: %q differs from uncached reference",
							label, seed, workers, rep.Results[i].ID)
					}
				}
				if pass == 1 && rep.CacheMisses != 0 {
					// Pass 0 persisted every (axis, QWP) entry these very
					// queries need; a miss means the warm start silently
					// failed and the test proved nothing.
					t.Errorf("%s seed %d workers %d: %d misses on a fully persisted table",
						label, seed, workers, rep.CacheMisses)
				}
			}
		}
		if pass == 0 {
			st, err := store.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			fps, err := st.TableFingerprints()
			if err != nil || len(fps) == 0 {
				t.Fatalf("no response tables persisted after pass 0 (err %v)", err)
			}
			for _, fp := range fps {
				if _, err := st.GetTable(fp); err != nil {
					t.Fatalf("pass 0 persisted an unreadable table: %v", err)
				}
			}
		}
	}
}

// TestFig15CrossSurfaceReuse is the regression the tentpole exists for:
// fig15 builds one Surface per distance (seven surfaces, one design), so
// with design-keyed tables the whole sweep must cost roughly ONE
// distance's worth of physics — ≥6/7 of lookups hit, and total misses
// stay within 1.5× of a single-distance run. Per-surface caches (the
// pre-table design) pass the hit-rate bar but fail the miss bound at ~7×.
func TestFig15CrossSurfaceReuse(t *testing.T) {
	ctx := context.Background()

	// Baseline: one distance from a cold registry.
	metasurface.ResetResponseTables()
	metasurface.ResetGlobalCacheStats()
	before := metasurface.GlobalCacheStats()
	if _, err := fig15Point(ctx, 1, 0); err != nil {
		t.Fatal(err)
	}
	single := metasurface.GlobalCacheStats().Sub(before)
	if single.Misses == 0 {
		t.Fatal("single-distance baseline recorded no misses; fig15 is not exercising the cache")
	}

	// Full sweep, again from cold.
	metasurface.ResetResponseTables()
	before = metasurface.GlobalCacheStats()
	for i := range Fig15Distances {
		if _, err := fig15Point(ctx, 1, i); err != nil {
			t.Fatalf("distance %d: %v", i, err)
		}
	}
	full := metasurface.GlobalCacheStats().Sub(before)

	n := float64(len(Fig15Distances))
	if hr := full.HitRate(); hr < (n-1)/n {
		t.Errorf("fig15 hit rate %.4f, want ≥ %d/%d: per-distance surfaces are not sharing a table",
			hr, len(Fig15Distances)-1, len(Fig15Distances))
	}
	if limit := single.Misses * 3 / 2; full.Misses > limit {
		t.Errorf("full fig15 missed %d times vs %d for one distance (limit %d): the sweep is recomputing per surface",
			full.Misses, single.Misses, limit)
	}
}

// TestLUTRunTaintsStoredCells: a cell written by an older release's
// approximate LUT mode carries the legacy Meta.LUT marker. Resume must
// refuse it (with a warning naming the file), recompute the exact
// bytes, and leave a clean record that the next resume reuses. The
// tainted record's rows are also perturbed, so reusing it by mistake
// would show in the output.
func TestLUTRunTaintsStoredCells(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()

	metasurface.ResetResponseTables()
	exact, err := Execute(ctx, Options{IDs: []string{"fig16"}, Concurrency: 1, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := st.Get("fig16", 1)
	if err != nil {
		t.Fatal(err)
	}
	tainted := &store.Record{Schema: rec.Schema, ID: rec.ID, Seed: rec.Seed, Title: rec.Title,
		Columns: rec.Columns, Notes: rec.Notes, Meta: rec.Meta}
	for _, row := range rec.Rows {
		tainted.Rows = append(tainted.Rows, append(append([]string(nil), row[:len(row)-1]...), "0.5"))
	}
	tainted.Meta.LUT = true
	if err := st.Put(tainted); err != nil {
		t.Fatal(err)
	}

	metasurface.ResetResponseTables()
	res, err := Execute(ctx, Options{IDs: []string{"fig16"}, Concurrency: 1, StoreDir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.ReusedCells != 0 || res.ComputedCells != 1 {
		t.Errorf("resume reused %d / computed %d cells, want 0/1 (tainted record refused)",
			res.ReusedCells, res.ComputedCells)
	}
	warned := false
	for _, w := range res.StoreWarnings {
		if strings.Contains(w, "LUT mode") && strings.Contains(w, st.CellPath("fig16", 1)) {
			warned = true
		}
	}
	if !warned {
		t.Errorf("resume did not warn about the LUT-tainted record by file: %v", res.StoreWarnings)
	}
	if !sameResult(res.Results[0], exact.Results[0]) {
		t.Error("recomputed cell differs from the exact reference")
	}

	// The re-persisted record is clean: a second resume reuses it.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec, err := st2.Get("fig16", 1); err != nil || rec.Meta.LUT {
		t.Fatalf("record after exact recompute: err=%v lut=%v, want a clean record", err, rec != nil && rec.Meta.LUT)
	}
	again, err := Execute(ctx, Options{IDs: []string{"fig16"}, Concurrency: 1, StoreDir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if again.ReusedCells != 1 {
		t.Errorf("clean record not reused on the second resume: %+v reused", again.ReusedCells)
	}
	if !sameResult(again.Results[0], exact.Results[0]) {
		t.Error("reused cell differs from the exact reference")
	}
}

// TestLegacyGridDirIgnored: a store written by an older release may
// still hold a grids/ directory of LUT grid records. The store must
// open, resume bit-identically, and GC must leave that directory alone.
func TestLegacyGridDirIgnored(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()

	metasurface.ResetResponseTables()
	fresh, err := Execute(ctx, Options{IDs: []string{"tab1"}, Concurrency: 1, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	grid := filepath.Join(dir, "grids", "legacy-fp.json")
	legacy := []byte(`{"schema":1,"fingerprint":"legacy-fp","saved_unix_ns":1,"meta":["2","2","0","0","1","0","1"]}` + "\n")
	if err := os.MkdirAll(filepath.Dir(grid), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(grid, legacy, 0o644); err != nil {
		t.Fatal(err)
	}

	metasurface.ResetResponseTables()
	res, err := Execute(ctx, Options{IDs: []string{"tab1"}, Concurrency: 1, StoreDir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.ReusedCells != 1 || len(res.StoreWarnings) != 0 {
		t.Errorf("resume over a store with grids/: reused %d cells, warnings %v; want 1, none", res.ReusedCells, res.StoreWarnings)
	}
	if !sameResult(res.Results[0], fresh.Results[0]) {
		t.Error("resumed cell differs from the fresh run")
	}

	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	gc, err := st.GC(store.GCPolicy{Now: time.Now().Add(time.Hour)})
	if err != nil {
		t.Fatal(err)
	}
	if gc.Removed != 1 {
		t.Errorf("GC removed %d cells, want the 1 unreferenced cell", gc.Removed)
	}
	if got, err := os.ReadFile(grid); err != nil || !bytes.Equal(got, legacy) {
		t.Errorf("GC touched the legacy grid record: err=%v, bytes equal=%v", err, bytes.Equal(got, legacy))
	}
}

// TestLoadSaveResponseTablesGlue: the store↔metasurface glue round-trips
// tables losslessly, union-merges with records already on disk, warns
// (and keeps going) on records metasurface rejects, and treats a nil
// store as a no-op.
func TestLoadSaveResponseTablesGlue(t *testing.T) {
	if nt, ne, w := LoadResponseTables(nil); nt != 0 || ne != 0 || w != nil {
		t.Errorf("nil-store load: %d/%d/%v", nt, ne, w)
	}
	if nt, ne, w := SaveResponseTables(nil); nt != 0 || ne != 0 || w != nil {
		t.Errorf("nil-store save: %d/%d/%v", nt, ne, w)
	}

	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	d := metasurface.OptimizedFR4Design(units.DefaultCarrierHz)
	f := units.DefaultCarrierHz

	metasurface.ResetResponseTables()
	s := metasurface.MustNew(d)
	s.SetBias(8, 8)
	s.JonesTransmissive(f) // 2 axis entries + 1 QWP entry
	if nt, ne, w := SaveResponseTables(st); nt != 1 || ne != 3 || len(w) != 0 {
		t.Fatalf("save: %d tables / %d entries / %v, want 1/3/none", nt, ne, w)
	}

	metasurface.ResetResponseTables()
	if nt, ne, w := LoadResponseTables(st); nt != 1 || ne != 3 || len(w) != 0 {
		t.Fatalf("load: %d tables / %d entries / %v, want 1/3/none", nt, ne, w)
	}
	warm := metasurface.MustNew(d)
	warm.SetBias(8, 8)
	before := metasurface.GlobalCacheStats()
	warm.JonesTransmissive(f)
	if cs := metasurface.GlobalCacheStats().Sub(before); cs.Misses != 0 || cs.Hits != 3 {
		t.Fatalf("warm surface = %+v, want 3 hits / 0 misses", cs)
	}

	// A new bias point grows the table; saving union-merges with disk.
	warm.SetBias(8, 9)
	warm.JonesTransmissive(f) // Y-axis entry is new
	if nt, ne, w := SaveResponseTables(st); nt != 1 || ne != 4 || len(w) != 0 {
		t.Fatalf("merge save: %d tables / %d entries / %v, want 1/4/none", nt, ne, w)
	}
	metasurface.ResetResponseTables()
	if _, ne, _ := LoadResponseTables(st); ne != 4 {
		t.Fatalf("reload after merge: %d entries, want 4", ne)
	}

	// A record the store lists but metasurface rejects (wrong arity) must
	// warn, name the fingerprint, and not block the good table.
	if err := st.PutTable(&store.TableRecord{Fingerprint: "bogus-fp", Axis: [][]string{{"X", "1"}}}); err != nil {
		t.Fatal(err)
	}
	metasurface.ResetResponseTables()
	nt, ne, warns := LoadResponseTables(st)
	if nt != 1 || ne != 4 {
		t.Errorf("load with corrupt sibling: %d tables / %d entries, want the good 1/4", nt, ne)
	}
	if len(warns) != 1 || !strings.Contains(warns[0], "bogus-fp") || !strings.Contains(warns[0], "skipping") {
		t.Errorf("corrupt record warning = %v, want one naming bogus-fp and 'skipping'", warns)
	}
}
