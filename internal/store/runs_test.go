package store

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// sampleRun builds a representative run record.
func sampleRun(id string) *RunRecord {
	return &RunRecord{
		ID: id,
		Spec: RunSpec{
			IDs: []string{"fig2a", "tab1"}, Seeds: []int64{1, 2, 3},
			ShardRows: true, BatchRows: 4, Resume: true,
		},
		Status:        "running",
		CreatedUnixNs: 12345,
	}
}

// TestRunRecordRoundTrip: PutRun stamps schema and path, GetRun returns
// the same record.
func TestRunRecordRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rec := sampleRun("run-000001")
	if err := s.PutRun(rec); err != nil {
		t.Fatal(err)
	}
	if rec.Schema != RunSchemaVersion || rec.Path == "" {
		t.Errorf("PutRun left schema=%d path=%q", rec.Schema, rec.Path)
	}
	got, err := s.GetRun("run-000001")
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != "running" || got.CreatedUnixNs != 12345 ||
		len(got.Spec.IDs) != 2 || got.Spec.Seeds[2] != 3 || !got.Spec.ShardRows || got.Spec.BatchRows != 4 || !got.Spec.Resume {
		t.Errorf("round trip lost fields: %+v", got)
	}
	// Update in place: status transitions overwrite atomically.
	rec.Status = "done"
	rec.FinishedUnixNs = 67890
	if err := s.PutRun(rec); err != nil {
		t.Fatal(err)
	}
	got, err = s.GetRun("run-000001")
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != "done" || got.FinishedUnixNs != 67890 {
		t.Errorf("update lost: %+v", got)
	}
}

// TestRunNotFound: a never-recorded run is a *NotFoundError naming the
// run ID and its would-be path.
func TestRunNotFound(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.GetRun("run-000042")
	checkNotFound(t, err, NotFoundError{ID: "run-000042", Path: s.RunPath("run-000042")})
}

// TestRunRecordCorrupt: truncated, mislabelled and schema-drifted
// records surface as CorruptError naming the path; ListRuns skips them
// without hiding healthy siblings.
func TestRunRecordCorrupt(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutRun(sampleRun("run-000001")); err != nil {
		t.Fatal(err)
	}
	cases := map[string]string{
		"truncated":  `{"schema":1,"id":"run-9`,
		"mislabel":   `{"schema":1,"id":"other","status":"done"}`,
		"badschema":  `{"schema":99,"id":"run-000009","status":"done"}`,
		"empty":      "",
		"multi-line": "{\"schema\":1,\"id\":\"run-000009\"}\n{\"schema\":1,\"id\":\"run-000009\"}",
	}
	for name, body := range cases {
		path := s.RunPath("run-000009")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := s.GetRun("run-000009"); err == nil || IsNotFound(err) {
			t.Errorf("%s: GetRun err = %v, want corrupt", name, err)
		} else if !strings.Contains(err.Error(), path) {
			t.Errorf("%s: error does not name the file: %v", name, err)
		}
		runs, err := s.ListRuns()
		if err != nil {
			t.Fatal(err)
		}
		if len(runs) != 1 || runs[0].ID != "run-000001" {
			t.Errorf("%s: ListRuns = %d records, want only the healthy one", name, len(runs))
		}
	}
}

// TestListRunsSortedAndEmpty: no runs directory means no runs (a store
// that never served is still openable), and listings sort by ID.
func TestListRunsSortedAndEmpty(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	runs, err := s.ListRuns()
	if err != nil || len(runs) != 0 {
		t.Fatalf("empty store: runs=%v err=%v", runs, err)
	}
	for _, id := range []string{"run-000003", "run-000001", "run-000002"} {
		if err := s.PutRun(sampleRun(id)); err != nil {
			t.Fatal(err)
		}
	}
	runs, err = s.ListRuns()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 3 || runs[0].ID != "run-000001" || runs[2].ID != "run-000003" {
		ids := make([]string, len(runs))
		for i, r := range runs {
			ids[i] = r.ID
		}
		t.Errorf("ListRuns order = %v", ids)
	}
}

// TestDeleteRun: removal is real and idempotent, and never touches
// cell records.
func TestDeleteRun(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(&Record{ID: "fig2a", Seed: 1, Columns: []string{"x"}, Rows: [][]string{{"1"}}}); err != nil {
		t.Fatal(err)
	}
	if err := s.PutRun(sampleRun("run-000001")); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteRun("run-000001"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetRun("run-000001"); !IsNotFound(err) {
		t.Fatalf("after delete: %v", err)
	}
	if err := s.DeleteRun("run-000001"); err != nil {
		t.Errorf("second delete: %v", err)
	}
	if _, err := s.Get("fig2a", 1); err != nil {
		t.Errorf("cell record vanished with the run: %v", err)
	}
}

// TestRunPathEscaping: hostile run IDs cannot traverse out of the runs
// directory.
func TestRunPathEscaping(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := s.RunPath("../../etc/passwd")
	if filepath.Dir(p) != filepath.Join(s.Dir(), "runs") {
		t.Errorf("RunPath escaped the runs dir: %s", p)
	}
}
