package fleet

// Completion-payload coverage: a worker's failure crosses the wire as
// its inner message plus the completed prefix, so the run error names
// the failing point once and the prefix is salvaged exactly as a local
// run salvages it; compute time keeps nanosecond resolution; and the
// decoder round-trips whatever it accepts.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/llama-surface/llama/internal/experiments"
)

func init() {
	// A test-only sweep that fails at its last point, for the remote
	// failure path.
	experiments.RegisterSweep(&experiments.Sweep{
		ID:          "fleet-fail",
		Description: "test-only sweep failing at point 5 of 6",
		Title:       "fleet failure fixture",
		Columns:     []string{"i", "seed"},
		Points:      6,
		Point: func(ctx context.Context, seed int64, i int) (experiments.PointResult, error) {
			if i == 5 {
				return experiments.PointResult{}, errors.New("boom")
			}
			return experiments.Row(float64(i), float64(seed)), nil
		},
	})
}

// TestRemoteFailureNamedOnce: a sweep failing at point 5 of 6, computed
// by a Worker over real HTTP, fails the run with the error a local run
// reports — point 5/6 named once — and salvages the same 5-row prefix,
// at one or two points per job and unsharded.
func TestRemoteFailureNamedOnce(t *testing.T) {
	const want = "experiments: fleet-fail (seed 1): point 5/6: boom"
	for _, spec := range []experiments.RunSpec{
		{IDs: []string{"fleet-fail"}, ShardRows: true, BatchRows: 1},
		{IDs: []string{"fleet-fail"}, ShardRows: true, BatchRows: 2},
		{IDs: []string{"fleet-fail"}},
	} {
		sched, _, ts := httpFleet(t, 5*time.Second)
		_, stop := startWorkers(t, ts.URL, 1)
		h, err := sched.Submit(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := h.Report()
		stop()
		if err == nil || err.Error() != want {
			t.Fatalf("batch %d shard %v: err = %v, want %q", spec.BatchRows, spec.ShardRows, err, want)
		}
		if len(rep.Salvaged) != 1 || len(rep.Salvaged[0].Rows) != 5 {
			t.Fatalf("batch %d shard %v: salvage = %+v, want one 5-row prefix", spec.BatchRows, spec.ShardRows, rep.Salvaged)
		}
	}
}

// TestRemoteFailureOldWorker: a worker that sends only the failure's
// full message, with no prefix, keeps today's text — the failure
// lands at the batch's first point.
func TestRemoteFailureOldWorker(t *testing.T) {
	sched, c, _ := httpFleet(t, 5*time.Second)
	h, err := sched.Submit(context.Background(), experiments.RunSpec{IDs: []string{"fleet-fail"}, ShardRows: true, BatchRows: 2})
	if err != nil {
		t.Fatal(err)
	}
	for {
		g, ok := c.Lease("old")
		if !ok {
			break
		}
		if g.Desc.Point == 4 {
			if err := c.Complete(g.ID, experiments.ExternalResult{}, "point 5/6: boom"); err != nil {
				t.Fatal(err)
			}
			continue
		}
		res, err := experiments.ComputeJob(context.Background(), g.Desc)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Complete(g.ID, res, ""); err != nil {
			t.Fatal(err)
		}
	}
	const want = "experiments: fleet-fail (seed 1): point 4/6: point 5/6: boom"
	if _, err := h.Report(); err == nil || err.Error() != want {
		t.Errorf("err = %v, want %q", err, want)
	}
}

// TestWireElapsedNanos: a sub-millisecond compute time crosses the
// completion payload unchanged.
func TestWireElapsedNanos(t *testing.T) {
	body, err := json.Marshal(toWire(experiments.ExternalResult{Elapsed: 300 * time.Microsecond}))
	if err != nil {
		t.Fatal(err)
	}
	var req completeRequest
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	if res, err := fromWire(req); err != nil || res.Elapsed != 300*time.Microsecond {
		t.Errorf("elapsed = %v (%v), want 300µs; payload %s", res.Elapsed, err, body)
	}
}

// TestFromWireRejectsNegativeElapsed: a completion whose compute time
// is negative is malformed — fromWire refuses it and /fleet/complete
// answers 400 — so no negative time reaches Timing.Busy or the stored
// Meta.ElapsedNs. The refusal ends the live lease and requeues its job
// at once, well inside the TTL.
func TestFromWireRejectsNegativeElapsed(t *testing.T) {
	for _, ns := range []int64{-1, -300, math.MinInt64} {
		if res, err := fromWire(completeRequest{ElapsedNanos: ns}); err == nil {
			t.Errorf("elapsed_ns %d: accepted as %v, want an error", ns, res.Elapsed)
		}
	}
	sched, c, ts := httpFleet(t, time.Minute)
	if _, err := sched.Submit(context.Background(), experiments.RunSpec{IDs: []string{"tab1"}}); err != nil {
		t.Fatal(err)
	}
	g, ok := c.Lease("bad")
	if !ok {
		t.Fatal("no lease granted")
	}
	body := map[string]any{"lease_id": g.ID, "elapsed_ns": -3000000}
	if status := postJSON(t, ts.URL+"/fleet/complete", body, nil); status != http.StatusBadRequest {
		t.Errorf("negative elapsed_ns: status %d, want 400", status)
	}
	if again, ok := c.Lease("honest"); !ok || again.Desc != g.Desc {
		t.Errorf("wire-rejected job not requeued: re-lease %v (ok %v), want %s", again, ok, g.Desc)
	}
}

// FuzzFromWire: the completion decoder must never panic or accept a
// negative elapsed time, and whatever it accepts must survive toWire, JSON and fromWire again bit-exactly,
// NaN and ±Inf included. The seed corpus holds real completions: a
// batch with NaN/±Inf cells, a legacy whole-cell table (its "cell"
// field is no longer part of the payload and decodes to no points),
// and a failure carrying its completed prefix.
func FuzzFromWire(f *testing.F) {
	for _, name := range []string{"complete_points.json", "complete_cell.json", "fail_prefix.json"} {
		data, err := os.ReadFile("testdata/" + name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req completeRequest
		if json.Unmarshal(data, &req) != nil {
			return
		}
		res, err := fromWire(req)
		if err != nil {
			return
		}
		if res.Elapsed < 0 {
			t.Fatalf("accepted a negative elapsed time %v", res.Elapsed)
		}
		body, err := json.Marshal(toWire(res))
		if err != nil {
			t.Fatalf("re-encoding an accepted payload: %v", err)
		}
		var again completeRequest
		if err := json.Unmarshal(body, &again); err != nil {
			t.Fatalf("re-encoded payload does not parse: %v", err)
		}
		back, err := fromWire(again)
		if err != nil {
			t.Fatalf("re-encoded payload rejected: %v", err)
		}
		if diff := resultDiff(res, back); diff != "" {
			t.Fatalf("round trip changed the result: %s", diff)
		}
	})
}

// FuzzLeaseWire fuzzes both directions of the lease poll. As a
// POST /fleet/lease body to an idle fleet-only coordinator, any bytes
// get 200, 204 or 400 and never a panic. As the coordinator's 200
// reply, any bytes reach Client.Lease without a panic: a reply that
// does not decode as a lease reply is an error, one of another wire
// version is a *VersionError and no grant, and any other is the grant
// it describes. The seed corpus holds a real lease request, a grant
// and a grant of another version.
func FuzzLeaseWire(f *testing.F) {
	for _, name := range []string{"lease_request.json", "lease_grant.json", "lease_grant_other_version.json"} {
		data, err := os.ReadFile("testdata/" + name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sched := experiments.NewScheduler(experiments.SchedulerConfig{LeaseOnly: true})
		defer sched.Close()
		c, err := NewCoordinator(Config{Sched: sched})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		Handler(c).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/fleet/lease", bytes.NewReader(data)))
		switch rec.Code {
		case http.StatusOK, http.StatusNoContent, http.StatusBadRequest:
		default:
			t.Fatalf("lease request answered %d, want 200, 204 or 400", rec.Code)
		}

		client := &Client{Base: "http://coordinator", HTTP: &http.Client{Transport: replyWith(data)}}
		g, ok, err := client.Lease("w", nil)
		var want leaseResponse
		var verr *VersionError
		switch werr := json.NewDecoder(bytes.NewReader(data)).Decode(&want); {
		case werr != nil:
			if err == nil {
				t.Fatalf("Client.Lease accepted a reply that does not decode (%v)", werr)
			}
		case want.Wire != wireVersion:
			if !errors.As(err, &verr) || verr.Coordinator != want.Wire || verr.Worker != wireVersion || ok {
				t.Fatalf("reply of wire version %d: grant %v (ok %v), err %v, want a *VersionError and no grant", want.Wire, g, ok, err)
			}
		case err != nil || !ok:
			t.Fatalf("a decoded reply of this version granted nothing (err %v)", err)
		case g.ID != want.LeaseID || g.Desc != want.Job:
			t.Fatalf("grant %+v from reply %+v", g, want)
		}
	})
}

// replyWith is a transport that answers every request with a 200
// carrying body, as a coordinator's httptest reply.
type replyWith []byte

func (body replyWith) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Body != nil {
		r.Body.Close()
	}
	rec := httptest.NewRecorder()
	rec.Write(body)
	return rec.Result(), nil
}

// resultDiff names the first difference between two results, comparing
// floats by bits; "" when they are identical.
func resultDiff(a, b experiments.ExternalResult) string {
	if a.Elapsed != b.Elapsed {
		return "elapsed"
	}
	if len(a.Points) != len(b.Points) {
		return "point count"
	}
	for i := range a.Points {
		if !sameRows(a.Points[i].Rows, b.Points[i].Rows) || !slices.Equal(a.Points[i].Notes, b.Points[i].Notes) {
			return fmt.Sprintf("point %d", i)
		}
	}
	return ""
}

// sameRows compares two tables cell by cell on float bits.
func sameRows(a, b [][]float64) bool {
	return slices.EqualFunc(a, b, func(x, y []float64) bool {
		return slices.EqualFunc(x, y, func(u, v float64) bool { return math.Float64bits(u) == math.Float64bits(v) })
	})
}

// postJSON posts body as JSON to url, decodes a 200 reply into out
// when out is non-nil, and returns the status code.
func postJSON(t *testing.T, url string, body, out any) int {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// TestLeaseWireVersion: the coordinator grants a lease only to a
// worker of its own wire version and echoes that version in the grant.
// A request from a worker that predates versioning (no "wire") or of
// any other version gets 400 naming both versions and leases nothing.
func TestLeaseWireVersion(t *testing.T) {
	sched, c, ts := httpFleet(t, 5*time.Second)
	if _, err := sched.Submit(context.Background(), experiments.RunSpec{IDs: []string{"tab1"}}); err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{`{"worker":"old"}`, `{"wire":1,"worker":"old"}`, `{"wire":3,"worker":"new"}`} {
		resp, err := http.Post(ts.URL+"/fleet/lease", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var refusal struct {
			Error string `json:"error"`
			Wire  int    `json:"wire"`
		}
		derr := json.NewDecoder(resp.Body).Decode(&refusal)
		resp.Body.Close()
		var req leaseRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		names := fmt.Sprintf("coordinator speaks version %d, worker speaks version %d", wireVersion, req.Wire)
		if resp.StatusCode != http.StatusBadRequest || derr != nil || refusal.Wire != wireVersion || !strings.Contains(refusal.Error, names) {
			t.Errorf("%s: status %d, body %+v (%v), want 400 with wire %d naming %q", body, resp.StatusCode, refusal, derr, wireVersion, names)
		}
	}
	if st := c.Stats(); st.Granted != 0 {
		t.Fatalf("refused requests granted %d leases", st.Granted)
	}
	var reply leaseResponse
	if status := postJSON(t, ts.URL+"/fleet/lease", leaseRequest{Wire: wireVersion, Worker: "current"}, &reply); status != http.StatusOK {
		t.Fatalf("versioned lease: status %d, want 200", status)
	}
	if reply.Wire != wireVersion || reply.LeaseID == "" {
		t.Errorf("grant %+v, want lease echoing wire %d", reply, wireVersion)
	}
}

// TestLeaseNoFleetEndpoints: a lease poll answered 404 reaches a server
// without the /fleet/* routes (llama-serve started without -fleet), so
// Client.Lease says that rather than ErrUnknownLease, which remains
// what 404 means to heartbeat and complete.
func TestLeaseNoFleetEndpoints(t *testing.T) {
	ts := httptest.NewServer(http.NotFoundHandler())
	defer ts.Close()
	client := &Client{Base: ts.URL}
	if _, ok, err := client.Lease("w", nil); !errors.Is(err, errNoFleet) || ok {
		t.Errorf("Lease: ok %v, err %v, want %v", ok, err, errNoFleet)
	}
	if err := client.Heartbeat("lease-1"); !errors.Is(err, ErrUnknownLease) {
		t.Errorf("Heartbeat: err %v, want %v", err, ErrUnknownLease)
	}
}

// TestLegacyCellCompletionRejected: a completion carrying only a
// whole-experiment table in the legacy "cell" field delivers no points,
// so the coordinator rejects it as malformed (400) and requeues the
// job; an honest recomputation then finishes the run with reference
// bytes.
func TestLegacyCellCompletionRejected(t *testing.T) {
	spec := experiments.RunSpec{IDs: []string{"tab1"}}
	want := referenceCSV(t, spec)
	sched, c, ts := httpFleet(t, 5*time.Second)
	h, err := sched.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	g, ok := c.Lease("old")
	if !ok {
		t.Fatal("no lease granted")
	}
	data, err := os.ReadFile("testdata/complete_cell.json")
	if err != nil {
		t.Fatal(err)
	}
	var legacy map[string]any
	if err := json.Unmarshal(data, &legacy); err != nil {
		t.Fatal(err)
	}
	if legacy["cell"] == nil || legacy["points"] != nil {
		t.Fatalf("fixture is not a cell-only completion: %s", data)
	}
	legacy["lease_id"] = g.ID
	if status := postJSON(t, ts.URL+"/fleet/complete", legacy, nil); status != http.StatusBadRequest {
		t.Fatalf("legacy cell completion: status %d, want 400", status)
	}
	again, ok := c.Lease("honest")
	if !ok || again.Desc != g.Desc {
		t.Fatalf("rejected job not requeued: re-lease %v (ok %v), want %s", again, ok, g.Desc)
	}
	res, err := experiments.ComputeJob(context.Background(), again.Desc)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Complete(again.ID, res, ""); err != nil {
		t.Fatal(err)
	}
	rep, err := h.Report()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteTables(&buf, "csv"); err != nil {
		t.Fatal(err)
	}
	if buf.String() != want {
		t.Error("bytes differ after a rejected legacy completion")
	}
}

// TestWireRejectedCompletionRequeued: a completion the wire decoder
// refuses (here a row cell that is not a number) answers 400 and, like
// one the coordinator rejects, ends the live lease and requeues its job
// at once through Coordinator.reject, so an honest worker is granted it
// without waiting out the TTL.
func TestWireRejectedCompletionRequeued(t *testing.T) {
	spec := experiments.RunSpec{IDs: []string{"tab1"}}
	want := referenceCSV(t, spec)
	sched, c, ts := httpFleet(t, time.Minute)
	h, err := sched.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	g, ok := c.Lease("bad")
	if !ok {
		t.Fatal("no lease granted")
	}
	body := map[string]any{"lease_id": g.ID, "points": []map[string]any{{"rows": [][]string{{"not-a-number"}}}}}
	if status := postJSON(t, ts.URL+"/fleet/complete", body, nil); status != http.StatusBadRequest {
		t.Fatalf("non-numeric row: status %d, want 400", status)
	}
	again, ok := c.Lease("honest")
	if !ok || again.Desc != g.Desc {
		t.Fatalf("wire-rejected job not requeued: re-lease %v (ok %v), want %s", again, ok, g.Desc)
	}
	res, err := experiments.ComputeJob(context.Background(), again.Desc)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Complete(again.ID, res, ""); err != nil {
		t.Fatal(err)
	}
	rep, err := h.Report()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteTables(&buf, "csv"); err != nil {
		t.Fatal(err)
	}
	if buf.String() != want {
		t.Error("bytes differ after a wire-rejected completion")
	}
	if st := c.Stats(); st.Live != 0 || st.Duplicates != 0 {
		t.Errorf("stats after the rejection = %+v, want no live lease and no duplicate", st)
	}
}

// TestWorkerRefusesOldCoordinator: a coordinator of another wire
// version — one that predates versioning and grants with no "wire", or
// one that refuses this worker's version with 400 — ends Worker.Run
// with a *VersionError naming both versions, at the first lease. The
// worker computes nothing, posts nothing back and does not poll again.
func TestWorkerRefusesOldCoordinator(t *testing.T) {
	for _, tc := range []struct {
		name   string
		status int
		reply  string
		peer   int
	}{
		{"unversioned grant", http.StatusOK, `{"lease_id":"lease-1","job":{"id":"tab1","seed":1,"sharded":true,"point":0,"count":7},"ttl_ms":60000}`, 0},
		{"newer refusal", http.StatusBadRequest, `{"error":"lease wire version mismatch","wire":3}`, 3},
	} {
		var mu sync.Mutex
		var paths []string
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			paths = append(paths, r.URL.Path)
			mu.Unlock()
			w.WriteHeader(tc.status)
			fmt.Fprint(w, tc.reply)
		}))
		computed := false
		wk, err := NewWorker(WorkerConfig{
			Client: &Client{Base: ts.URL},
			Poll:   time.Millisecond,
			Compute: func(ctx context.Context, d experiments.JobDesc) (experiments.ExternalResult, error) {
				computed = true
				return experiments.ComputeJob(ctx, d)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = wk.Run(ctx)
		cancel()
		ts.Close()
		var verr *VersionError
		if !errors.As(err, &verr) || *verr != (VersionError{Coordinator: tc.peer, Worker: wireVersion}) {
			t.Errorf("%s: Run = %v, want a *VersionError for coordinator version %d", tc.name, err, tc.peer)
		}
		if computed || !slices.Equal(paths, []string{"/fleet/lease"}) {
			t.Errorf("%s: computed %v, calls %v; want one lease poll and nothing else", tc.name, computed, paths)
		}
	}
}
