package metasurface

// Contracts of the design-keyed response-table registry: fingerprint
// canonicalization, cross-surface sharing, and the lossless
// export/import round trip that backs persistence.

import (
	"reflect"
	"slices"
	"testing"

	"github.com/llama-surface/llama/internal/units"
)

// TestDesignFingerprintPhysics: the fingerprint must be stable for the
// same design and must cover Design field by field. The mutations are
// generated by walking Design with reflect, Substrate and Diode
// included: every numeric leaf is physics a response evaluation can
// observe and must move the key (an aliased table would serve one
// design's responses for another), and every string leaf is a label
// and must not. A leaf of any other kind fails until the fingerprint
// and this test say how it counts.
func TestDesignFingerprintPhysics(t *testing.T) {
	base := OptimizedFR4Design(units.DefaultCarrierHz)
	fp := DesignFingerprint(base)
	if fp == "" {
		t.Fatal("empty fingerprint")
	}
	if again := DesignFingerprint(base); again != fp {
		t.Fatalf("fingerprint not deterministic: %s != %s", again, fp)
	}

	type leaf struct {
		name  string
		index []int
	}
	var leaves []leaf
	var walk func(typ reflect.Type, index []int, prefix string)
	walk = func(typ reflect.Type, index []int, prefix string) {
		for i := range typ.NumField() {
			f := typ.Field(i)
			idx := append(slices.Clone(index), i)
			if f.Type.Kind() == reflect.Struct {
				walk(f.Type, idx, prefix+f.Name+".")
				continue
			}
			leaves = append(leaves, leaf{prefix + f.Name, idx})
		}
	}
	walk(reflect.TypeOf(base), nil, "")

	nested := 0
	for _, l := range leaves {
		d := base
		v := reflect.ValueOf(&d).Elem().FieldByIndex(l.index)
		physics := true
		switch v.Kind() {
		case reflect.Float64:
			v.SetFloat(v.Float()*1.001 + 1e-3) // moves a zero field too
		case reflect.Int:
			v.SetInt(v.Int() + 1)
		case reflect.String:
			v.SetString(v.String() + " (relabelled)")
			physics = false
		default:
			t.Errorf("%s: field of kind %s is neither physics nor label", l.name, v.Kind())
			continue
		}
		if len(l.index) > 1 {
			nested++
		}
		switch moved := DesignFingerprint(d) != fp; {
		case physics && !moved:
			t.Errorf("%s: physics mutation did not change the fingerprint", l.name)
		case !physics && moved:
			t.Errorf("%s: relabelling changed the fingerprint; labels must not split tables", l.name)
		}
	}
	if nested == 0 {
		t.Fatal("walk found no Substrate or Diode fields")
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
	since := window()
	a.JonesTransmissive(f)
	if st := since(); st.Misses != 3 || st.Hits != 0 {
		t.Fatalf("first surface = %+v, want 3 misses", st)
	}

	b := MustNew(d)
	b.SetBias(8, 8)
	since = window()
	b.JonesTransmissive(f)
	if st := since(); st.Hits != 3 || st.Misses != 0 {
		t.Fatalf("sibling surface = %+v, want 3 hits against shared entries", st)
	}
	if TableCount() != 1 {
		t.Fatalf("TableCount = %d, want 1 (same design, one table)", TableCount())
	}

	other := MustNew(NaiveFR4Design(units.DefaultCarrierHz))
	other.SetBias(8, 8)
	since = window()
	other.JonesTransmissive(f)
	if st := since(); st.Misses != 3 || st.Hits != 0 {
		t.Fatalf("different design = %+v, want its own cold table", st)
	}
	if TableCount() != 2 {
		t.Fatalf("TableCount = %d, want 2 after a second design", TableCount())
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
	since := window()
	fresh.JonesTransmissive(units.DefaultCarrierHz)
	if st := since(); st.Misses != 3 {
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
	n, _, _, err := ImportResponseTable(ex)
	if err != nil {
		t.Fatalf("import: %v", err)
	}
	if n != ex.Entries() {
		t.Fatalf("imported %d entries, export carries %d", n, ex.Entries())
	}

	warm := MustNew(d)
	since := window()
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
	if st := since(); st.Misses != 0 {
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
		if _, _, _, err := ImportResponseTable(ex); err == nil {
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
	if _, _, _, err := ImportResponseTable(mixed); err == nil {
		t.Fatal("mixed corrupt import accepted")
	}
	if n, _, _, err := ImportResponseTable(TableExport{Fingerprint: "mixed-fp"}); err != nil || n != 0 {
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
	_, v1, exact, err := ImportResponseTable(ex)
	if err != nil || !exact {
		t.Fatalf("import into an empty table: exact=%v err=%v", exact, err)
	}
	if v1 == v0 {
		t.Error("a recreated table repeated a version")
	}
	// Importing the same rows again adds nothing: same version, still exact.
	if _, v, exact, _ := ImportResponseTable(ex); v != v1 || !exact {
		t.Errorf("idempotent import: version %d exact=%v, want %d true", v, exact, v1)
	}
	// A new entry moves the version; the table now holds more than ex.
	warm := MustNew(d)
	warm.SetBias(8, 9)
	warm.JonesTransmissive(units.DefaultCarrierHz)
	if _, v, exact, _ := ImportResponseTable(ex); v == v1 || exact {
		t.Errorf("import into a grown table: version %d (was %d) exact=%v, want a new version, not exact", v, v1, exact)
	}

	// Rows out of canonical order never import exactly.
	ResetResponseTables()
	reversed := TableExport{Fingerprint: fp, Axis: [][]string{ex.Axis[1], ex.Axis[0]}, QWP: ex.QWP}
	if _, _, exact, err := ImportResponseTable(reversed); err != nil || exact {
		t.Errorf("non-canonical import: exact=%v err=%v, want not exact", exact, err)
	}
	// A rejected import reports no version.
	if _, v, exact, err := ImportResponseTable(TableExport{Fingerprint: fp, QWP: [][]string{{"1"}}}); err == nil || v != 0 || exact {
		t.Errorf("rejected import: version %d exact=%v err=%v", v, exact, err)
	}
}
