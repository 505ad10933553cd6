package service_test

// Regression coverage for the run-record lifecycle races this service
// hardening fixed: the record write-ordering race (a fast run's final
// record clobbered by or resurrecting around DELETE), the
// submit-vs-shutdown leak, /healthz status-code semantics, oversized
// submissions, and concurrent DELETE / result / list races. All run
// under -race in CI.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/llama-surface/llama/internal/experiments"
	"github.com/llama-surface/llama/internal/service"
	"github.com/llama-surface/llama/internal/store"
)

// TestFastRunRecordNotClobbered is the write-ordering regression: a
// run record, once deleted, must never be resurrected by a stale write.
// A run reaches its terminal in-memory status the instant the watcher
// releases the server lock, but its terminal disk write (PutRun) is
// still in flight; a DELETE landing in that window removes the record,
// after which the unordered pre-fix write re-created ("resurrected")
// the run on disk — a durably wrong history a restarted server would
// re-list. The first phase hammers the narrow window with fast real
// runs; the second widens it deterministically with a huge cancelled
// spec, whose multi-hundred-KB terminal record keeps PutRun busy for
// milliseconds while DELETEs are spammed into the gap.
func TestFastRunRecordNotClobbered(t *testing.T) {
	dir := t.TempDir()
	svc, ts := newServer(t, dir, 2)
	var ids []string
	for i := 0; i < 15; i++ {
		id := submit(t, ts.URL, `{"ids":["fig2a"],"seeds":[1]}`)
		ids = append(ids, id)
		awaitStatus(t, ts.URL, id, service.StatusDone)
		if code, raw := doJSON(t, http.MethodDelete, ts.URL+"/runs/"+id, "", nil); code != http.StatusNoContent {
			t.Fatalf("DELETE %s: code %d body %s", id, code, raw)
		}
	}
	var sb strings.Builder
	sb.WriteString(`{"ids":["svc-block"],"seeds":[1`)
	for seed := 2; seed <= 40000; seed++ {
		fmt.Fprintf(&sb, ",%d", seed)
	}
	sb.WriteString(`]}`)
	for attempt := 0; attempt < 4; attempt++ {
		id := submit(t, ts.URL, sb.String())
		ids = append(ids, id)
		// Spam DELETE: the first hit cancels the live run (202), the rest
		// pound the gap between the in-memory flip to cancelled and the
		// completion of the watcher's terminal record write.
		deadline := time.Now().Add(20 * time.Second)
		for {
			code, raw := doJSON(t, http.MethodDelete, ts.URL+"/runs/"+id, "", nil)
			if code == http.StatusNoContent || code == http.StatusNotFound {
				break
			}
			if code != http.StatusAccepted {
				t.Fatalf("DELETE %s: code %d body %s", id, code, raw)
			}
			if time.Now().After(deadline) {
				t.Fatalf("run %s never reached a deletable state", id)
			}
		}
	}
	// Shutdown waits out every watcher, so any stale write has landed (or
	// been suppressed) by the time the store is inspected.
	if err := svc.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	ts.Close()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := st.ListRuns()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Errorf("%d deleted run(s) resurrected on disk (first: %s, status %q) — run-record writes are not ordered",
			len(recs), recs[0].ID, recs[0].Status)
	}
	for _, id := range ids {
		if _, err := st.GetRun(id); !store.IsNotFound(err) {
			t.Errorf("GetRun(%s) after delete = %v, want NotFound", id, err)
		}
	}
}

// TestSubmitShutdownNoLeak is the submit-vs-shutdown regression
// (alongside the scheduler's TestSchedulerGoroutineBound): submissions
// racing Shutdown either land (201, then drain to a terminal status) or
// bounce (503/429) — and either way nothing outlives the drain; the
// goroutine count settles back to baseline.
func TestSubmitShutdownNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	svc, ts := newServer(t, t.TempDir(), 2)
	var wg sync.WaitGroup
	start := make(chan struct{})
	codes := make([]int, 24)
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			codes[i], _ = doJSON(t, http.MethodPost, ts.URL+"/runs", `{"ids":["fig2a"],"seeds":[1]}`, nil)
		}(i)
	}
	close(start)
	if err := svc.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()
	for i, code := range codes {
		switch code {
		case http.StatusCreated, http.StatusServiceUnavailable, http.StatusTooManyRequests:
		default:
			t.Errorf("racing submit %d: code %d, want 201/503/429", i, code)
		}
	}
	ts.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: before=%d now=%d — submit/shutdown race leaked", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestHealthzDrainIs503: probes key on status codes, so /healthz must
// flip to 503 the moment Shutdown begins — 200 with "ok": false reads
// as healthy to every load balancer.
func TestHealthzDrainIs503(t *testing.T) {
	svc, ts := newServer(t, t.TempDir(), 1)
	var health struct {
		OK bool `json:"ok"`
	}
	if code, raw := doJSON(t, http.MethodGet, ts.URL+"/healthz", "", &health); code != http.StatusOK || !health.OK {
		t.Fatalf("live healthz: code %d body %s", code, raw)
	}
	if err := svc.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if code, raw := doJSON(t, http.MethodGet, ts.URL+"/healthz", "", &health); code != http.StatusServiceUnavailable || health.OK {
		t.Errorf("draining healthz: code %d body %s, want 503 with ok=false", code, raw)
	}
}

// TestOversizedBody413: a submission body over the 1 MiB cap is the
// client's fault and names the limit — 413, not a generic 400.
func TestOversizedBody413(t *testing.T) {
	_, ts := newServer(t, t.TempDir(), 1)
	huge := `{"ids":["fig2a"],"seeds":[` + strings.Repeat("1,", 1<<19) + `1]}`
	resp, err := http.Post(ts.URL+"/runs", "application/json", bytes.NewReader([]byte(huge)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: code %d, want 413 (body %s)", resp.StatusCode, buf.String())
	}
	if !strings.Contains(buf.String(), "1 MiB") {
		t.Errorf("oversized-body error %q does not name the 1 MiB limit", buf.String())
	}
}

// TestConcurrentDeleteFinishedRun: racing DELETEs of the same finished
// run must resolve cleanly — one wins with 204, the rest see 404 (or a
// second clean 204), never a 500.
func TestConcurrentDeleteFinishedRun(t *testing.T) {
	_, ts := newServer(t, t.TempDir(), 2)
	id := submit(t, ts.URL, `{"ids":["fig2a"],"seeds":[1]}`)
	awaitStatus(t, ts.URL, id, service.StatusDone)
	const racers = 8
	codes := make([]int, racers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			codes[i], _ = doJSON(t, http.MethodDelete, ts.URL+"/runs/"+id, "", nil)
		}(i)
	}
	close(start)
	wg.Wait()
	won := 0
	for i, code := range codes {
		switch code {
		case http.StatusNoContent:
			won++
		case http.StatusNotFound:
		default:
			t.Errorf("racer %d: code %d, want 204 or 404", i, code)
		}
	}
	if won < 1 {
		t.Error("no DELETE racer won with 204")
	}
	if code, _ := doJSON(t, http.MethodGet, ts.URL+"/runs/"+id, "", nil); code != http.StatusNotFound {
		t.Errorf("run still resolves after racing deletes: code %d", code)
	}
}

// TestDeleteDuringResultAndList: DELETE racing GET /result and GET
// /runs must leave every response well-formed — results either serve
// the full correct bytes or a clean 404, listings always decode.
func TestDeleteDuringResultAndList(t *testing.T) {
	_, ts := newServer(t, t.TempDir(), 2)
	want := benchBytes(t, experiments.Options{IDs: []string{"tab1"}, Seeds: []int64{1}, Concurrency: 1}, "csv")
	for round := 0; round < 6; round++ {
		id := submit(t, ts.URL, `{"ids":["tab1"],"seeds":[1]}`)
		awaitStatus(t, ts.URL, id, service.StatusDone)
		var wg sync.WaitGroup
		start := make(chan struct{})
		wg.Add(3)
		go func() {
			defer wg.Done()
			<-start
			code, body, _ := fetchResult(t, ts.URL, id, "csv")
			if code == http.StatusOK && body != want {
				t.Errorf("round %d: result served wrong bytes during delete race", round)
			} else if code != http.StatusOK && code != http.StatusNotFound {
				t.Errorf("round %d: result during delete: code %d, want 200 or 404", round, code)
			}
		}()
		go func() {
			defer wg.Done()
			<-start
			if code, raw := doJSON(t, http.MethodDelete, ts.URL+"/runs/"+id, "", nil); code != http.StatusNoContent && code != http.StatusNotFound {
				t.Errorf("round %d: delete code %d body %s", round, code, raw)
			}
		}()
		go func() {
			defer wg.Done()
			<-start
			var list struct {
				Runs []struct {
					ID string `json:"id"`
				} `json:"runs"`
			}
			if code, raw := doJSON(t, http.MethodGet, ts.URL+"/runs", "", &list); code != http.StatusOK {
				t.Errorf("round %d: list during delete: code %d body %s", round, code, raw)
			}
		}()
		close(start)
		wg.Wait()
	}
}
