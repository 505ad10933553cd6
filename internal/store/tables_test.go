package store

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// sampleTable builds a representative table record.
func sampleTable(fp string) *TableRecord {
	return &TableRecord{
		Fingerprint: fp,
		Axis: [][]string{
			{"X", "2.45e9", "8", "0.1", "0", "0.9", "0", "0.9", "0", "0.1", "0", "377", "0.5", "0"},
			{"Y", "2.45e9", "NaN", "+Inf", "-Inf", "0", "0", "0", "0", "0", "0", "377", "0", "0"},
		},
		QWP: [][]string{{"2.45e9", "1", "2"}},
	}
}

// TestTableRecordRoundTrip: PutTable stamps schema, timestamp and path;
// GetTable returns the identical rows (the store never interprets
// them, so NaN/Inf strings must survive untouched).
func TestTableRecordRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rec := sampleTable("fp-abc123")
	if err := s.PutTable(rec); err != nil {
		t.Fatal(err)
	}
	if rec.Schema != TableSchemaVersion || rec.Path == "" || rec.SavedUnixNs == 0 {
		t.Errorf("PutTable left schema=%d path=%q saved=%d", rec.Schema, rec.Path, rec.SavedUnixNs)
	}
	got, err := s.GetTable("fp-abc123")
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint != "fp-abc123" || got.Entries() != 3 {
		t.Fatalf("round trip: %+v", got)
	}
	if got.Axis[1][2] != "NaN" || got.Axis[1][3] != "+Inf" {
		t.Errorf("non-finite cells mangled: %v", got.Axis[1])
	}
	// A pinned timestamp must survive re-puts (cross-process writers
	// rely on pinned stamps for byte-identical records).
	got.SavedUnixNs = 42
	if err := s.PutTable(got); err != nil {
		t.Fatal(err)
	}
	again, err := s.GetTable("fp-abc123")
	if err != nil {
		t.Fatal(err)
	}
	if again.SavedUnixNs != 42 {
		t.Errorf("pinned SavedUnixNs overwritten: %d", again.SavedUnixNs)
	}
}

// TestTableNotFound: a never-persisted table is a *NotFoundError
// naming the fingerprint and its would-be path.
func TestTableNotFound(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.GetTable("never-written")
	checkNotFound(t, err, NotFoundError{ID: "never-written", Path: s.TablePath("never-written")})
}

// TestTableRecordCorrupt: truncated, multi-line, schema-drifted,
// fingerprint-less and mislabelled records all surface as CorruptError
// naming the path — never as not-found, never as a zero record.
func TestTableRecordCorrupt(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutTable(sampleTable("fp-x")); err != nil {
		t.Fatal(err)
	}
	path := s.TablePath("fp-x")
	for name, data := range map[string]string{
		"empty":          "",
		"truncated":      `{"schema":1,"fingerprint":"fp-`,
		"multi-line":     "{}\n{}\n",
		"schema drift":   `{"schema":999,"fingerprint":"fp-x"}` + "\n",
		"no fingerprint": `{"schema":1}` + "\n",
		"mislabelled":    `{"schema":1,"fingerprint":"fp-other"}` + "\n",
	} {
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := s.GetTable("fp-x")
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Errorf("%s: err = %v, want CorruptError", name, err)
			continue
		}
		if !strings.Contains(ce.Error(), path) {
			t.Errorf("%s: corrupt error does not name the file: %v", name, ce)
		}
		if IsNotFound(err) {
			t.Errorf("%s: corruption misreported as not-found", name)
		}
	}
}

// TestTablePathEscaping: hostile fingerprints cannot escape the tables
// directory.
func TestTablePathEscaping(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := s.TablePath("../../etc/passwd")
	if filepath.Dir(p) != filepath.Join(s.Dir(), "tables") {
		t.Fatalf("hostile fingerprint escaped the tables dir: %s", p)
	}
	if err := s.PutTable(&TableRecord{Fingerprint: "../../x", Axis: [][]string{{"X"}}}); err != nil {
		t.Fatal(err)
	}
	if got, err := s.GetTable("../../x"); err != nil || got.Entries() != 1 {
		t.Fatalf("escaped round trip: %v", err)
	}
}

// TestPutTableValidates: nil and fingerprint-less records are rejected
// before touching disk.
func TestPutTableValidates(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutTable(nil); err == nil {
		t.Error("nil record accepted")
	}
	if err := s.PutTable(&TableRecord{}); err == nil {
		t.Error("fingerprint-less record accepted")
	}
}

// TestTableFingerprints: the listing names every record file by its
// fingerprint, sorted, without reading it — a damaged record is listed
// (GetTable reports it), while temp files and names that are not an
// escaped fingerprint are not records at all.
func TestTableFingerprints(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if fps, err := s.TableFingerprints(); err != nil || len(fps) != 0 {
		t.Fatalf("empty store: %v / %v", fps, err)
	}
	for _, fp := range []string{"zz", "a/b", "mm"} {
		if err := s.PutTable(sampleTable(fp)); err != nil {
			t.Fatal(err)
		}
	}
	for name, data := range map[string]string{
		"broken.json":    "not json\n",
		"zz.json.tmp123": "half-written",
		"%zz.json":       "{}\n",
		"a%2fb.json":     "{}\n", // not how TablePath escapes "a/b"
	} {
		if err := os.WriteFile(filepath.Join(filepath.Join(s.Dir(), "tables"), name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	fps, err := s.TableFingerprints()
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"a/b", "broken", "mm", "zz"}; strings.Join(fps, " ") != strings.Join(want, " ") {
		t.Errorf("fingerprints = %q, want %q", fps, want)
	}
}

// TestTableSynced: a noted record stays synced at the noted version
// until its file is replaced or deleted; another version, another
// handle, or a record never noted is not synced.
func TestTableSynced(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := sampleTable("fp-s")
	if err := s.PutTable(rec); err != nil {
		t.Fatal(err)
	}
	if s.TableSynced("fp-s", 7) {
		t.Error("a record never noted is synced")
	}
	s.NoteTableSynced(rec, 7)
	if !s.TableSynced("fp-s", 7) {
		t.Error("a just-written record is not synced at its version")
	}
	if s.TableSynced("fp-s", 8) {
		t.Error("synced at a version that was never noted")
	}
	other, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if other.TableSynced("fp-s", 7) {
		t.Error("the note leaked to another handle")
	}

	// A record read back is noted the same way.
	got, err := s.GetTable("fp-s")
	if err != nil {
		t.Fatal(err)
	}
	s.NoteTableSynced(got, 9)
	if !s.TableSynced("fp-s", 9) {
		t.Error("a just-read record is not synced at its version")
	}
	// Another writer replaces the file with the very same bytes: a new
	// file, so no longer synced.
	same := sampleTable("fp-s")
	same.SavedUnixNs = got.SavedUnixNs
	if err := other.PutTable(same); err != nil {
		t.Fatal(err)
	}
	if s.TableSynced("fp-s", 9) {
		t.Error("a replaced record is still synced")
	}
	s.NoteTableSynced(same, 10)
	if err := os.Remove(s.TablePath("fp-s")); err != nil {
		t.Fatal(err)
	}
	if s.TableSynced("fp-s", 10) {
		t.Error("a deleted record is still synced")
	}
	// Records that did not come from a store carry no file to compare.
	s.NoteTableSynced(sampleTable("fp-free"), 1)
	if s.TableSynced("fp-free", 1) {
		t.Error("a record built in memory was noted")
	}
}
