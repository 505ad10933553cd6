package service_test

// Service-level lock-in of determinism invariant 7: the bytes served
// over HTTP for a completed run are identical to llama-bench's stdout
// for the same spec — including when a restarted server reconstructs
// the report from the store — plus lifecycle coverage (cancel, delete,
// drain-time salvage, validation). Run under -race in CI.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/llama-surface/llama/internal/experiments"
	"github.com/llama-surface/llama/internal/service"
	"github.com/llama-surface/llama/internal/store"
)

// blockRelease gates the svc-block test sweep: its second point parks
// until the channel closes or its context dies, giving tests a
// deterministic "in-flight run" to cancel or drain.
var blockRelease = make(chan struct{})

func init() {
	experiments.RegisterSweep(&experiments.Sweep{
		ID:          "svc-block",
		Description: "test-only sweep whose last point blocks until released or cancelled",
		Title:       "blocking sweep",
		Columns:     []string{"i", "seed"},
		Points:      2,
		Point: func(ctx context.Context, seed int64, i int) (experiments.PointResult, error) {
			if i == 1 {
				select {
				case <-blockRelease:
				case <-ctx.Done():
					return experiments.PointResult{}, ctx.Err()
				}
			}
			return experiments.Row(float64(i), float64(seed)), nil
		},
	})
}

// newServer opens a store-backed service over dir and wires it to an
// httptest server.
func newServer(t *testing.T, dir string, workers int) (*service.Server, *httptest.Server) {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := service.New(service.Config{Store: st, Workers: workers, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc)
	t.Cleanup(ts.Close)
	// Drain the runs before the temp dir goes: a parked run's record
	// write would otherwise race its removal.
	t.Cleanup(func() { svc.Shutdown(context.Background()) })
	return svc, ts
}

// doJSON performs one request and decodes the JSON response body into
// out (out may be nil to discard).
func doJSON(t *testing.T, method, url string, body string, out any) (int, string) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && len(raw) > 0 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, url, raw, err)
		}
	}
	return resp.StatusCode, string(raw)
}

// submit posts a run and returns its ID.
func submit(t *testing.T, base, body string) string {
	t.Helper()
	var got struct {
		ID     string `json:"id"`
		Status string `json:"status"`
	}
	code, raw := doJSON(t, http.MethodPost, base+"/runs", body, &got)
	if code != http.StatusCreated || got.ID == "" {
		t.Fatalf("POST /runs: code %d body %s", code, raw)
	}
	return got.ID
}

// awaitStatus polls a run until it reaches want (or fails the test).
func awaitStatus(t *testing.T, base, id, want string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var got struct {
			Status string `json:"status"`
			Error  string `json:"error"`
		}
		code, raw := doJSON(t, http.MethodGet, base+"/runs/"+id, "", &got)
		if code != http.StatusOK {
			t.Fatalf("GET /runs/%s: code %d body %s", id, code, raw)
		}
		if got.Status == want {
			return
		}
		if got.Status == service.StatusFailed && want != service.StatusFailed {
			t.Fatalf("run %s failed: %s", id, got.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %s stuck in %q, want %q", id, got.Status, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// fetchResult fetches a completed run's tables.
func fetchResult(t *testing.T, base, id, format string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/runs/%s/result?format=%s", base, id, format))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(raw), resp.Header.Get("Content-Type")
}

// benchBytes renders the reference: what llama-bench prints to stdout
// for the same spec (serial engine + Report.WriteTables).
func benchBytes(t *testing.T, opts experiments.Options, format string) string {
	t.Helper()
	rep, err := experiments.Execute(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteTables(&buf, format); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestResultMatchesBenchAcrossRestart is invariant 7 end to end: a run
// served over HTTP is byte-identical to llama-bench output for the same
// (IDs, seeds, workers, shard) spec, and stays byte-identical when a
// NEW server process re-serves it from the store alone.
func TestResultMatchesBenchAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	svc, ts := newServer(t, dir, 4)
	wantCSV := benchBytes(t, experiments.Options{IDs: []string{"fig2a", "tab1"}, Seeds: []int64{1, 2, 3}, Concurrency: 1}, "csv")
	wantJSON := benchBytes(t, experiments.Options{IDs: []string{"fig2a", "tab1"}, Seeds: []int64{1, 2, 3}, Concurrency: 1}, "json")

	id := submit(t, ts.URL, `{"ids":["fig2a","tab1"],"seeds":[1,2,3],"shard_rows":true}`)
	awaitStatus(t, ts.URL, id, service.StatusDone)

	code, gotCSV, ctype := fetchResult(t, ts.URL, id, "csv")
	if code != http.StatusOK || !strings.HasPrefix(ctype, "text/csv") {
		t.Fatalf("result: code %d content-type %s", code, ctype)
	}
	if gotCSV != wantCSV {
		t.Error("served CSV differs from llama-bench bytes")
	}
	if code, gotJSON, _ := fetchResult(t, ts.URL, id, "json"); code != http.StatusOK || gotJSON != wantJSON {
		t.Errorf("served JSON: code %d, bytes match=%v", code, gotJSON == wantJSON)
	}

	// Restart: shut the first server down, open a second over the same
	// store. It must re-list the run as done and re-serve identical
	// bytes with zero recomputation (every cell decodes from the store).
	if err := svc.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	ts.Close()
	_, ts2 := newServer(t, dir, 2)
	var st struct {
		Status string `json:"status"`
	}
	if code, raw := doJSON(t, http.MethodGet, ts2.URL+"/runs/"+id, "", &st); code != http.StatusOK || st.Status != service.StatusDone {
		t.Fatalf("restarted status: code %d body %s", code, raw)
	}
	code, again, _ := fetchResult(t, ts2.URL, id, "csv")
	if code != http.StatusOK {
		t.Fatalf("restarted result: code %d", code)
	}
	if again != wantCSV {
		t.Error("restarted server served different bytes (invariant 7 broken)")
	}
}

// TestSharedStoreReusesCells: a second run whose spec overlaps an
// earlier run's cells answers the overlap from the store instead of
// recomputing, and still matches the fresh-run reference bytes.
func TestSharedStoreReusesCells(t *testing.T) {
	dir := t.TempDir()
	_, ts := newServer(t, dir, 2)
	first := submit(t, ts.URL, `{"ids":["tab1"],"seeds":[1,2]}`)
	awaitStatus(t, ts.URL, first, service.StatusDone)
	second := submit(t, ts.URL, `{"ids":["tab1"],"seeds":[1,2,3]}`)
	awaitStatus(t, ts.URL, second, service.StatusDone)
	var st struct {
		ReusedCells   int `json:"reused_cells"`
		ComputedCells int `json:"computed_cells"`
	}
	doJSON(t, http.MethodGet, ts.URL+"/runs/"+second, "", &st)
	if st.ReusedCells != 2 || st.ComputedCells != 1 {
		t.Errorf("reused %d / computed %d, want 2 / 1", st.ReusedCells, st.ComputedCells)
	}
	want := benchBytes(t, experiments.Options{IDs: []string{"tab1"}, Seeds: []int64{1, 2, 3}, Concurrency: 1}, "csv")
	if _, got, _ := fetchResult(t, ts.URL, second, "csv"); got != want {
		t.Error("resumed run served different bytes than a fresh run")
	}
}

// TestCancelSalvagesCompletedCells: DELETE on a live run cancels it;
// the already-finished sibling cell persists to the store (the salvage
// path), so nothing computed is lost.
func TestCancelSalvagesCompletedCells(t *testing.T) {
	dir := t.TempDir()
	_, ts := newServer(t, dir, 2)
	id := submit(t, ts.URL, `{"ids":["fig2a","svc-block"],"seeds":[1]}`)
	// Wait until the fast sibling's job retired (svc-block stays parked),
	// so exactly one of two jobs is done.
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st struct {
			Progress struct {
				DoneJobs int `json:"done_jobs"`
			} `json:"progress"`
		}
		doJSON(t, http.MethodGet, ts.URL+"/runs/"+id, "", &st)
		if st.Progress.DoneJobs >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("fast sibling never finished")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if code, raw := doJSON(t, http.MethodDelete, ts.URL+"/runs/"+id, "", nil); code != http.StatusAccepted {
		t.Fatalf("DELETE live run: code %d body %s", code, raw)
	}
	awaitStatus(t, ts.URL, id, service.StatusCancelled)
	if code, _, _ := fetchResult(t, ts.URL, id, "csv"); code != http.StatusConflict {
		t.Errorf("result of cancelled run: code %d, want 409", code)
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get("fig2a", 1); err != nil {
		t.Errorf("completed sibling cell not salvaged into the store: %v", err)
	}
	// A finished (cancelled) run's DELETE removes the record.
	if code, _ := doJSON(t, http.MethodDelete, ts.URL+"/runs/"+id, "", nil); code != http.StatusNoContent {
		t.Errorf("DELETE finished run: code %d, want 204", code)
	}
	if code, _ := doJSON(t, http.MethodGet, ts.URL+"/runs/"+id, "", nil); code != http.StatusNotFound {
		t.Errorf("deleted run still resolves: code %d", code)
	}
}

// TestShutdownDrainsInFlight: Shutdown with a parked run cancels it,
// persists the completed sibling cells, and records the run as
// cancelled — so a restarted server shows an honest history.
func TestShutdownDrainsInFlight(t *testing.T) {
	dir := t.TempDir()
	svc, ts := newServer(t, dir, 2)
	id := submit(t, ts.URL, `{"ids":["tab1","svc-block"],"seeds":[1]}`)
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st struct {
			Progress struct {
				DoneJobs int `json:"done_jobs"`
			} `json:"progress"`
		}
		doJSON(t, http.MethodGet, ts.URL+"/runs/"+id, "", &st)
		if st.Progress.DoneJobs >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("fast sibling never finished")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := svc.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	ts.Close()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get("tab1", 1); err != nil {
		t.Errorf("drain did not persist the completed cell: %v", err)
	}
	rec, err := st.GetRun(id)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Status != service.StatusCancelled {
		t.Errorf("drained run recorded as %q, want cancelled", rec.Status)
	}
}

// TestValidationAndLifecycleErrors covers the fail-fast paths: bad
// JSON, unknown experiment IDs, unknown runs, unknown formats, and
// result requests for unfinished runs.
func TestValidationAndLifecycleErrors(t *testing.T) {
	_, ts := newServer(t, t.TempDir(), 2)
	if code, raw := doJSON(t, http.MethodPost, ts.URL+"/runs", `{"ids":`, nil); code != http.StatusBadRequest {
		t.Errorf("bad JSON: code %d body %s", code, raw)
	}
	if code, raw := doJSON(t, http.MethodPost, ts.URL+"/runs", `{"ids":["no-such-fig"]}`, nil); code != http.StatusBadRequest || !strings.Contains(raw, "unknown id") {
		t.Errorf("unknown experiment: code %d body %s", code, raw)
	}
	if code, raw := doJSON(t, http.MethodPost, ts.URL+"/runs", `{"bogus_field":1}`, nil); code != http.StatusBadRequest {
		t.Errorf("unknown field: code %d body %s", code, raw)
	}
	if code, _ := doJSON(t, http.MethodGet, ts.URL+"/runs/run-999999", "", nil); code != http.StatusNotFound {
		t.Errorf("unknown run: code %d", code)
	}
	id := submit(t, ts.URL, `{"ids":["tab1"]}`)
	awaitStatus(t, ts.URL, id, service.StatusDone)
	if code, raw, _ := fetchResult(t, ts.URL, id, "yaml"); code != http.StatusBadRequest || !strings.Contains(raw, "unknown format") {
		t.Errorf("unknown format: code %d body %s", code, raw)
	}
	var health struct {
		OK   bool `json:"ok"`
		Runs int  `json:"runs"`
	}
	if code, raw := doJSON(t, http.MethodGet, ts.URL+"/healthz", "", &health); code != http.StatusOK || !health.OK || health.Runs != 1 {
		t.Errorf("healthz: code %d body %s", code, raw)
	}
	var list struct {
		Runs []struct {
			ID string `json:"id"`
		} `json:"runs"`
	}
	if code, raw := doJSON(t, http.MethodGet, ts.URL+"/runs", "", &list); code != http.StatusOK || len(list.Runs) != 1 || list.Runs[0].ID != id {
		t.Errorf("list: code %d body %s", code, raw)
	}
}

// TestDefaultSeedAndFormat: an empty spec body runs seed {1} over the
// named IDs, and the result defaults to CSV.
func TestDefaultSeedAndFormat(t *testing.T) {
	_, ts := newServer(t, t.TempDir(), 2)
	id := submit(t, ts.URL, `{"ids":["fig2a"]}`)
	awaitStatus(t, ts.URL, id, service.StatusDone)
	want := benchBytes(t, experiments.Options{IDs: []string{"fig2a"}, Seeds: []int64{1}, Concurrency: 1}, "csv")
	resp, err := http.Get(ts.URL + "/runs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || string(raw) != want {
		t.Errorf("default-format result: code %d, bytes match=%v", resp.StatusCode, string(raw) == want)
	}
}

// TestRepeatedSeedsRunOnce: a spec that repeats a seed runs that seed
// once — the run's recorded spec names [2 1], it computes two cells,
// and it serves the bytes of the {2,1} spec.
func TestRepeatedSeedsRunOnce(t *testing.T) {
	_, ts := newServer(t, t.TempDir(), 2)
	id := submit(t, ts.URL, `{"ids":["fig2a"],"seeds":[2,1,2]}`)
	awaitStatus(t, ts.URL, id, service.StatusDone)
	var got struct {
		Spec struct {
			Seeds []int64 `json:"seeds"`
		} `json:"spec"`
		ComputedCells int `json:"computed_cells"`
	}
	if code, raw := doJSON(t, http.MethodGet, ts.URL+"/runs/"+id, "", &got); code != http.StatusOK {
		t.Fatalf("GET /runs/%s: code %d body %s", id, code, raw)
	}
	if fmt.Sprint(got.Spec.Seeds) != "[2 1]" || got.ComputedCells != 2 {
		t.Errorf("seeds {2,1,2}: spec seeds %v, %d computed cells; want [2 1], 2", got.Spec.Seeds, got.ComputedCells)
	}
	want := benchBytes(t, experiments.Options{IDs: []string{"fig2a"}, Seeds: []int64{2, 1}, Concurrency: 1}, "csv")
	if code, body, _ := fetchResult(t, ts.URL, id, "csv"); code != http.StatusOK || body != want {
		t.Errorf("seeds {2,1,2}: result code %d, bytes match {2,1} = %v", code, body == want)
	}
}
