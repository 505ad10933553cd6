package experiments

// Clean-table skipping in SaveResponseTables: a table that has not grown
// since this store handle loaded or wrote its record, and whose record
// file is unchanged, costs nothing on save; every other table takes the
// union-merge path. Run under -race in CI.

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/llama-surface/llama/internal/metasurface"
	"github.com/llama-surface/llama/internal/store"
	"github.com/llama-surface/llama/internal/units"
)

// syncDesigns are two designs with distinct fingerprints, so a save has
// a grown table and an untouched one to tell apart.
func syncDesigns() [2]metasurface.Design {
	return [2]metasurface.Design{
		metasurface.OptimizedFR4Design(units.DefaultCarrierHz),
		metasurface.OptimizedFR4Design(2.2e9),
	}
}

// fillTables computes the same small set of points on both designs: 2
// axis entries + 1 QWP entry per design.
func fillTables(t *testing.T) {
	t.Helper()
	for _, d := range syncDesigns() {
		s := metasurface.MustNew(d)
		s.SetBias(8, 8)
		s.JonesTransmissive(d.CenterHz)
	}
}

// growTable adds one new axis entry to the first design's table.
func growTable(t *testing.T) {
	t.Helper()
	d := syncDesigns()[0]
	s := metasurface.MustNew(d)
	s.SetBias(8, 9)
	s.JonesTransmissive(d.CenterHz)
}

// seededStore persists the filled tables into a fresh store directory
// and returns it with the registry reset, as a new process would see it.
func seededStore(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	metasurface.ResetResponseTables()
	fillTables(t)
	if nt, _, w := SaveResponseTables(st); nt != 2 || len(w) != 0 {
		t.Fatalf("seeding: %d tables written, warnings %v; want 2, none", nt, w)
	}
	metasurface.ResetResponseTables()
	// Let the coarse file clock tick, so a rewrite would move mtimes.
	time.Sleep(20 * time.Millisecond)
	return dir
}

// fileState is one table record file's bytes and mtime.
type fileState struct {
	data  []byte
	mtime time.Time
}

// tableFiles snapshots every DIR/tables/*.json file by name.
func tableFiles(t *testing.T, dir string) map[string]fileState {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "tables", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]fileState, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		info, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(p)] = fileState{data: data, mtime: info.ModTime()}
	}
	return out
}

// changedFiles returns the names whose bytes or mtime differ between two
// snapshots, plus names present in only one of them.
func changedFiles(before, after map[string]fileState) []string {
	var out []string
	for name, b := range before {
		a, ok := after[name]
		if !ok || !bytes.Equal(a.data, b.data) || !a.mtime.Equal(b.mtime) {
			out = append(out, name)
		}
	}
	for name := range after {
		if _, ok := before[name]; !ok {
			out = append(out, name)
		}
	}
	return out
}

// loadFrom opens dir and warm-starts the registry from it.
func loadFrom(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if nt, ne, w := LoadResponseTables(st); nt != 2 || ne != 6 || len(w) != 0 {
		t.Fatalf("load: %d tables / %d entries / %v, want 2/6/none", nt, ne, w)
	}
	return st
}

// recordEntries reads one design's record through a fresh handle.
func recordEntries(t *testing.T, dir string, d metasurface.Design) int {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := st.GetTable(metasurface.DesignFingerprint(d))
	if err != nil {
		t.Fatal(err)
	}
	return rec.Entries()
}

// TestSaveSkipsCleanTables: load, a pass that computes nothing, save —
// no record is written, so every file keeps its bytes and mtime.
func TestSaveSkipsCleanTables(t *testing.T) {
	dir := seededStore(t)
	before := tableFiles(t, dir)
	st := loadFrom(t, dir)
	before0 := metasurface.GlobalCacheStats()
	fillTables(t) // every lookup is a hit
	if cs := metasurface.GlobalCacheStats().Sub(before0); cs.Misses != 0 {
		t.Fatalf("warm pass computed %d entries, want 0", cs.Misses)
	}
	if nt, ne, w := SaveResponseTables(st); nt != 0 || ne != 0 || len(w) != 0 {
		t.Fatalf("save: %d tables / %d entries / %v written, want 0/0/none", nt, ne, w)
	}
	if ch := changedFiles(before, tableFiles(t, dir)); len(ch) != 0 {
		t.Errorf("a save with nothing new rewrote %v", ch)
	}
}

// TestSaveRewritesOnlyGrownTable: one new point on one design rewrites
// that design's record alone, and the rewrite holds the union.
func TestSaveRewritesOnlyGrownTable(t *testing.T) {
	dir := seededStore(t)
	before := tableFiles(t, dir)
	st := loadFrom(t, dir)
	growTable(t)
	if nt, ne, w := SaveResponseTables(st); nt != 1 || ne != 4 || len(w) != 0 {
		t.Fatalf("save: %d tables / %d entries / %v, want 1/4/none", nt, ne, w)
	}
	d := syncDesigns()[0]
	grown := filepath.Base(st.TablePath(metasurface.DesignFingerprint(d)))
	if ch := changedFiles(before, tableFiles(t, dir)); len(ch) != 1 || ch[0] != grown {
		t.Errorf("rewritten records = %v, want only %s", ch, grown)
	}
	if n := recordEntries(t, dir, d); n != 4 {
		t.Errorf("grown record holds %d entries, want the union of 4", n)
	}
	// The rewrite is noted too: saving again writes nothing.
	if nt, _, _ := SaveResponseTables(st); nt != 0 {
		t.Errorf("second save wrote %d tables, want 0", nt)
	}
}

// TestSaveToOtherStoreWritesAll: tables loaded from store A are not
// clean with respect to store B, so saving to B writes every table.
func TestSaveToOtherStoreWritesAll(t *testing.T) {
	dirA := seededStore(t)
	loadFrom(t, dirA)
	dirB := t.TempDir()
	stB, err := store.Open(dirB)
	if err != nil {
		t.Fatal(err)
	}
	if nt, ne, w := SaveResponseTables(stB); nt != 2 || ne != 6 || len(w) != 0 {
		t.Fatalf("save to B: %d tables / %d entries / %v, want 2/6/none", nt, ne, w)
	}
	if got := len(tableFiles(t, dirB)); got != 2 {
		t.Errorf("store B holds %d records, want 2", got)
	}
}

// TestSaveAfterResetWritesAll: a table recreated by ResetResponseTables
// never repeats the version noted at load, so recomputing the same
// points and saving writes every table again.
func TestSaveAfterResetWritesAll(t *testing.T) {
	dir := seededStore(t)
	before := tableFiles(t, dir)
	st := loadFrom(t, dir)
	metasurface.ResetResponseTables()
	fillTables(t)
	if nt, ne, w := SaveResponseTables(st); nt != 2 || ne != 6 || len(w) != 0 {
		t.Fatalf("save: %d tables / %d entries / %v, want 2/6/none", nt, ne, w)
	}
	if ch := changedFiles(before, tableFiles(t, dir)); len(ch) != 2 {
		t.Errorf("rewritten records = %v, want both", ch)
	}
}

// TestSaveMergesChangedRecord: a record another writer replaced or
// deleted between load and save is not clean; the table takes the merge
// path, so the other writer's entries survive and a deleted record is
// written back.
func TestSaveMergesChangedRecord(t *testing.T) {
	dir := seededStore(t)
	designs := syncDesigns()
	// The other writer's record for design 0 holds one extra entry.
	fillTables(t)
	growTable(t)
	bigger, _, ok := metasurface.ExportResponseTable(metasurface.DesignFingerprint(designs[0]))
	if !ok || len(bigger.Axis)+len(bigger.QWP) != 4 {
		t.Fatalf("building the other writer's record: ok=%v entries=%d", ok, len(bigger.Axis)+len(bigger.QWP))
	}
	metasurface.ResetResponseTables()

	st := loadFrom(t, dir)
	other, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.PutTable(&store.TableRecord{Fingerprint: bigger.Fingerprint, Axis: bigger.Axis, QWP: bigger.QWP}); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(other.TablePath(metasurface.DesignFingerprint(designs[1]))); err != nil {
		t.Fatal(err)
	}

	if nt, ne, w := SaveResponseTables(st); nt != 2 || ne != 7 || len(w) != 0 {
		t.Fatalf("save: %d tables / %d entries / %v, want 2/7/none", nt, ne, w)
	}
	if n := recordEntries(t, dir, designs[0]); n != 4 {
		t.Errorf("replaced record holds %d entries after save, want the union of 4", n)
	}
	if n := recordEntries(t, dir, designs[1]); n != 3 {
		t.Errorf("deleted record holds %d entries after save, want 3", n)
	}
}

// TestLoadWarnsOnCorruptRecord: a truncated record beside a good one
// warns once, naming the bad file, and the good table still loads.
func TestLoadWarnsOnCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	metasurface.ResetResponseTables()
	d := syncDesigns()[0]
	s := metasurface.MustNew(d)
	s.SetBias(8, 8)
	s.JonesTransmissive(d.CenterHz)
	if nt, _, w := SaveResponseTables(st); nt != 1 || len(w) != 0 {
		t.Fatalf("save: %d tables / %v", nt, w)
	}
	bad := st.TablePath("deadbeef")
	if err := os.WriteFile(bad, []byte(`{"schema":1,"fingerprint":"dead`), 0o644); err != nil {
		t.Fatal(err)
	}

	metasurface.ResetResponseTables()
	nt, ne, warns := LoadResponseTables(st)
	if nt != 1 || ne != 3 {
		t.Errorf("load beside a truncated record: %d tables / %d entries, want the good 1/3", nt, ne)
	}
	if len(warns) != 1 || !strings.Contains(warns[0], bad) {
		t.Errorf("warnings = %v, want exactly one naming %s", warns, bad)
	}
}
