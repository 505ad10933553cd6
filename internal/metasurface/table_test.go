package metasurface

// Contracts of the design-keyed response-table registry: fingerprint
// canonicalization, cross-surface sharing, three-view counter
// attribution (per surface / per design table / global), and the
// lossless export/import round trip that backs persistence.

import (
	"reflect"
	"testing"

	"github.com/llama-surface/llama/internal/units"
)

// TestDesignFingerprintPhysics: the fingerprint must be stable for the
// same design, indifferent to labels, and sensitive to every physical
// parameter a response evaluation can observe.
func TestDesignFingerprintPhysics(t *testing.T) {
	base := OptimizedFR4Design(units.DefaultCarrierHz)
	fp := DesignFingerprint(base)
	if fp == "" {
		t.Fatal("empty fingerprint")
	}
	if again := DesignFingerprint(base); again != fp {
		t.Fatalf("fingerprint not deterministic: %s != %s", again, fp)
	}

	renamed := base
	renamed.Name = "same physics, different label"
	renamed.Substrate.Name = "relabelled laminate"
	renamed.Diode.Name = "relabelled diode"
	if got := DesignFingerprint(renamed); got != fp {
		t.Errorf("renaming changed the fingerprint: labels must not split tables")
	}

	// Every mutation below changes physics and must change the key —
	// an aliased table would serve one design's responses for another.
	mutations := map[string]func(*Design){
		"substrate epsilon": func(d *Design) { d.Substrate.EpsilonR *= 1.001 },
		"diode C0":          func(d *Design) { d.Diode.C0 *= 1.001 },
		"center frequency":  func(d *Design) { d.CenterHz += 1e6 },
		"bfs layers":        func(d *Design) { d.BFSLayers++ },
		"load pitch":        func(d *Design) { d.LoadPitch *= 1.001 },
		"bias offset":       func(d *Design) { d.BiasOffsetX += 0.01 },
		"bias range":        func(d *Design) { d.MaxBiasV += 1 },
	}
	for name, mutate := range mutations {
		d := base
		mutate(&d)
		if got := DesignFingerprint(d); got == fp {
			t.Errorf("%s: physics mutation did not change the fingerprint", name)
		}
	}
}

// TestSharedTableCrossSurface: surfaces of one design share one table
// (a sibling's identical query hits), while a different design gets its
// own table.
func TestSharedTableCrossSurface(t *testing.T) {
	ResetResponseTables()
	d := OptimizedFR4Design(units.DefaultCarrierHz)
	f := units.DefaultCarrierHz

	a := MustNew(d)
	a.SetBias(8, 8)
	a.JonesTransmissive(f)
	if st := a.CacheStats(); st.Misses != 3 || st.Hits != 0 {
		t.Fatalf("first surface = %+v, want 3 misses", st)
	}

	b := MustNew(d)
	b.SetBias(8, 8)
	b.JonesTransmissive(f)
	if st := b.CacheStats(); st.Hits != 3 || st.Misses != 0 {
		t.Fatalf("sibling surface = %+v, want 3 hits against shared entries", st)
	}
	if TableCount() != 1 {
		t.Fatalf("TableCount = %d, want 1 (same design, one table)", TableCount())
	}

	other := MustNew(NaiveFR4Design(units.DefaultCarrierHz))
	other.SetBias(8, 8)
	other.JonesTransmissive(f)
	if st := other.CacheStats(); st.Misses != 3 || st.Hits != 0 {
		t.Fatalf("different design = %+v, want its own cold table", st)
	}
	if TableCount() != 2 {
		t.Fatalf("TableCount = %d, want 2 after a second design", TableCount())
	}
}

// TestTableStatsThreeViews: per-surface, per-design-table and global
// counters must agree — each lookup counts exactly once in each view,
// and the sum over a design's surfaces equals its table's counters.
// The windowed (Sub) form is what the engine's single-worker
// attribution relies on.
func TestTableStatsThreeViews(t *testing.T) {
	ResetResponseTables()
	before := GlobalCacheStats()
	d := OptimizedFR4Design(units.DefaultCarrierHz)
	f := units.DefaultCarrierHz

	a := MustNew(d)
	b := MustNew(d)
	a.SetBias(8, 8)
	b.SetBias(8, 9) // shares the X-axis and QWP entries, misses on Y
	a.JonesTransmissive(f)
	b.JonesTransmissive(f)
	b.JonesTransmissive(f) // all hits

	sa, sb := a.CacheStats(), b.CacheStats()
	sum := CacheStats{Hits: sa.Hits + sb.Hits, Misses: sa.Misses + sb.Misses}
	table := TableStats(d)
	global := GlobalCacheStats().Sub(before)
	if sum != table {
		t.Errorf("sum of surfaces %+v != design table %+v", sum, table)
	}
	if table != global {
		t.Errorf("design table %+v != global window %+v (single design in window)", table, global)
	}
	if s := a.TableStats(); s != table {
		t.Errorf("Surface.TableStats %+v != TableStats(design) %+v", s, table)
	}
	// Pin the arithmetic so the no-double-count claim is concrete:
	// a misses 3; b hits X+QWP (2), misses Y (1); b's repeat hits 3.
	if want := (CacheStats{Hits: 5, Misses: 4}); table != want {
		t.Errorf("table counters %+v, want %+v", table, want)
	}
}

// TestResetResponseTables: reset empties the registry, and surfaces
// built afterwards start cold.
func TestResetResponseTables(t *testing.T) {
	ResetResponseTables()
	s := MustNew(OptimizedFR4Design(units.DefaultCarrierHz))
	s.SetBias(8, 8)
	s.JonesTransmissive(units.DefaultCarrierHz)
	if TableCount() == 0 {
		t.Fatal("no table registered after use")
	}
	ResetResponseTables()
	if TableCount() != 0 {
		t.Fatalf("TableCount = %d after reset", TableCount())
	}
	fresh := MustNew(OptimizedFR4Design(units.DefaultCarrierHz))
	fresh.SetBias(8, 8)
	fresh.JonesTransmissive(units.DefaultCarrierHz)
	if st := fresh.CacheStats(); st.Misses != 3 {
		t.Errorf("post-reset surface = %+v, want a cold start (3 misses)", st)
	}
}

// TestTableExportImportRoundTrip: export → fresh registry → import must
// hand back bit-identical responses with zero recomputation, and
// re-exporting the imported table must reproduce the exported bytes
// exactly (the persistence path's lossless contract).
func TestTableExportImportRoundTrip(t *testing.T) {
	ResetResponseTables()
	d := OptimizedFR4Design(units.DefaultCarrierHz)
	src := MustNew(d)
	want := make(map[float64]struct{ x, y complex128 })
	biases := []float64{0, 0.1, 7.3, 15, 30}
	for _, v := range biases {
		src.SetBias(v, v)
		for _, f := range []float64{2.2e9, units.DefaultCarrierHz} {
			src.JonesTransmissive(f)
			want[f*1e3+v] = struct{ x, y complex128 }{
				src.AxisTransmission(AxisX, f, v),
				src.AxisTransmission(AxisY, f, v),
			}
		}
	}

	exports := ExportResponseTables()
	if len(exports) != 1 {
		t.Fatalf("%d exports, want 1", len(exports))
	}
	ex := exports[0]
	if ex.Fingerprint != DesignFingerprint(d) {
		t.Fatalf("export fingerprint %s != design fingerprint", ex.Fingerprint)
	}
	if ex.Entries() == 0 {
		t.Fatal("empty export")
	}

	ResetResponseTables()
	n, err := ImportResponseTable(ex)
	if err != nil {
		t.Fatalf("import: %v", err)
	}
	if n != ex.Entries() {
		t.Fatalf("imported %d entries, export carries %d", n, ex.Entries())
	}

	warm := MustNew(d)
	for _, v := range biases {
		warm.SetBias(v, v)
		for _, f := range []float64{2.2e9, units.DefaultCarrierHz} {
			k := f*1e3 + v
			if got := warm.AxisTransmission(AxisX, f, v); !sameC(got, want[k].x) {
				t.Fatalf("X response at (%g, %g) changed across export/import", f, v)
			}
			if got := warm.AxisTransmission(AxisY, f, v); !sameC(got, want[k].y) {
				t.Fatalf("Y response at (%g, %g) changed across export/import", f, v)
			}
		}
	}
	if st := warm.CacheStats(); st.Misses != 0 {
		t.Errorf("warm surface recomputed %d entries; import should have pre-filled all of them", st.Misses)
	}

	again := ExportResponseTables()
	if len(again) != 1 || !reflect.DeepEqual(again[0], ex) {
		t.Error("re-export after import is not byte-identical: persisted tables would churn")
	}
}

// TestImportRejectsCorrupt: a record that fails validation must be
// rejected whole — no half-populated table, no counter movement.
func TestImportRejectsCorrupt(t *testing.T) {
	ResetResponseTables()
	good := TableExport{
		Fingerprint: "test-fp",
		Axis: [][]string{{
			"X", "2.45e9", "8",
			"0.1", "0", "0.9", "0", "0.9", "0", "0.1", "0", "377", "0.5", "0",
		}},
	}
	for name, ex := range map[string]TableExport{
		"no fingerprint": {Axis: good.Axis},
		"bad arity": {Fingerprint: "fp", Axis: [][]string{
			{"X", "2.45e9", "8"},
		}},
		"unknown axis": {Fingerprint: "fp", Axis: [][]string{
			append([]string{"Z"}, good.Axis[0][1:]...),
		}},
		"non-numeric cell": {Fingerprint: "fp", Axis: [][]string{
			append([]string{"X", "2.45e9", "not-a-float"}, good.Axis[0][3:]...),
		}},
		"bad qwp arity": {Fingerprint: "fp", QWP: [][]string{{"2.45e9", "1"}}},
	} {
		if _, err := ImportResponseTable(ex); err == nil {
			t.Errorf("%s: corrupt import accepted", name)
		}
	}
	if TableCount() != 0 {
		t.Fatalf("rejected imports left %d table(s) in the registry", TableCount())
	}
	// A mixed record — one valid row, one corrupt — must be all-or-nothing.
	mixed := TableExport{
		Fingerprint: "mixed-fp",
		Axis:        [][]string{good.Axis[0], {"X", "oops"}},
	}
	if _, err := ImportResponseTable(mixed); err == nil {
		t.Fatal("mixed corrupt import accepted")
	}
	if n, err := ImportResponseTable(TableExport{Fingerprint: "mixed-fp"}); err != nil || n != 0 {
		t.Fatalf("probe import: n=%d err=%v", n, err)
	}
	for _, ex := range ExportResponseTables() {
		if ex.Fingerprint == "mixed-fp" && ex.Entries() != 0 {
			t.Fatalf("mixed corrupt import half-populated the table with %d entries", ex.Entries())
		}
	}
}

// TestTableVersions: a table's version moves exactly when it gains an
// entry (a compute or a growing import), never on hits, and a table
// recreated by ResetResponseTables never repeats it. An import reports
// exact only when the table then holds the export's rows and nothing
// else, in canonical order.
func TestTableVersions(t *testing.T) {
	ResetResponseTables()
	d := OptimizedFR4Design(units.DefaultCarrierHz)
	fp := DesignFingerprint(d)
	s := MustNew(d)
	s.SetBias(8, 8)
	s.JonesTransmissive(units.DefaultCarrierHz)
	ex, v0, ok := ExportResponseTable(fp)
	if !ok || ex.Entries() != 3 {
		t.Fatalf("export: ok=%v entries=%d, want 3", ok, ex.Entries())
	}
	if _, _, ok := ExportResponseTable("no-such-table"); ok {
		t.Error("export of an unregistered fingerprint reported ok")
	}
	s.JonesTransmissive(units.DefaultCarrierHz) // hits only
	if vs := ResponseTableVersions(); len(vs) != 1 || vs[0].Version != v0 || vs[0].Entries != 3 {
		t.Fatalf("after hits: %+v, want version %d with 3 entries", vs, v0)
	}

	// Into an empty registry, a canonical export imports exactly.
	ResetResponseTables()
	_, v1, exact, err := ImportResponseTableVersion(ex)
	if err != nil || !exact {
		t.Fatalf("import into an empty table: exact=%v err=%v", exact, err)
	}
	if v1 == v0 {
		t.Error("a recreated table repeated a version")
	}
	// Importing the same rows again adds nothing: same version, still exact.
	if _, v, exact, _ := ImportResponseTableVersion(ex); v != v1 || !exact {
		t.Errorf("idempotent import: version %d exact=%v, want %d true", v, exact, v1)
	}
	// A new entry moves the version; the table now holds more than ex.
	warm := MustNew(d)
	warm.SetBias(8, 9)
	warm.JonesTransmissive(units.DefaultCarrierHz)
	if _, v, exact, _ := ImportResponseTableVersion(ex); v == v1 || exact {
		t.Errorf("import into a grown table: version %d (was %d) exact=%v, want a new version, not exact", v, v1, exact)
	}

	// Rows out of canonical order never import exactly.
	ResetResponseTables()
	reversed := TableExport{Fingerprint: fp, Axis: [][]string{ex.Axis[1], ex.Axis[0]}, QWP: ex.QWP}
	if _, _, exact, err := ImportResponseTableVersion(reversed); err != nil || exact {
		t.Errorf("non-canonical import: exact=%v err=%v, want not exact", exact, err)
	}
	// A rejected import reports no version.
	if _, v, exact, err := ImportResponseTableVersion(TableExport{Fingerprint: fp, QWP: [][]string{{"1"}}}); err == nil || v != 0 || exact {
		t.Errorf("rejected import: version %d exact=%v err=%v", v, exact, err)
	}
}
