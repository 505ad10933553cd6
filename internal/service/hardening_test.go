package service_test

// Sustained-traffic hardening coverage: the /events stream, admission
// control (429 + Retry-After), the scheduler's round-robin fairness
// and priority lane, result promptness under a saturated pool, and the
// GC endpoint. Run under -race in CI.

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/llama-surface/llama/internal/experiments"
	"github.com/llama-surface/llama/internal/service"
	"github.com/llama-surface/llama/internal/store"
)

func init() {
	// svc-work: a sweep whose points take real wall-clock time, so
	// fairness and streaming tests can observe runs mid-flight. Only the
	// service test binary registers it (the experiments package's own
	// tests pin the registry's exact contents).
	experiments.RegisterSweep(&experiments.Sweep{
		ID:          "svc-work",
		Description: "test-only sweep with slow points",
		Title:       "slow sweep",
		Columns:     []string{"i", "seed"},
		Points:      4,
		Point: func(ctx context.Context, seed int64, i int) (experiments.PointResult, error) {
			select {
			case <-ctx.Done():
				return experiments.PointResult{}, ctx.Err()
			case <-time.After(15 * time.Millisecond):
			}
			return experiments.Row(float64(i), float64(seed)), nil
		},
	})
	// svc-gated: TestEventsStream's sweep. Seed 1's job waits until the
	// test has opened the event stream, and seed 4's until the test has
	// read a progress frame from it, so with one worker the stream
	// carries progress without depending on timing.
	experiments.RegisterSweep(&experiments.Sweep{
		ID:          "svc-gated",
		Description: "test-only sweep gated by TestEventsStream",
		Title:       "gated sweep",
		Columns:     []string{"seed"},
		Points:      1,
		Point: func(ctx context.Context, seed int64, i int) (experiments.PointResult, error) {
			var gate chan struct{}
			if g := streamGates.Load(); g != nil {
				switch seed {
				case 1:
					gate = g.opened
				case 4:
					gate = g.progressed
				}
			}
			if gate != nil {
				select {
				case <-gate:
				case <-ctx.Done():
					return experiments.PointResult{}, ctx.Err()
				}
			}
			return experiments.Row(float64(seed)), nil
		},
	})
}

// eventGates are the channels the svc-gated sweep waits on.
type eventGates struct{ opened, progressed chan struct{} }

// streamGates holds the current TestEventsStream run's gates.
var streamGates atomic.Pointer[eventGates]

// newServerCfg is newServer with the full hardening config exposed.
func newServerCfg(t *testing.T, dir string, cfg service.Config) (*service.Server, *httptest.Server) {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = st
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	svc, err := service.New(cfg)
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

// sseEvent is one parsed server-sent event frame.
type sseEvent struct {
	name string
	data string
}

// sseReader reads an event stream one frame at a time.
type sseReader struct{ sc *bufio.Scanner }

// newSSEReader wraps an event-stream body.
func newSSEReader(body io.Reader) *sseReader {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	return &sseReader{sc: sc}
}

// next returns the stream's next frame, or false once the server has
// closed the stream.
func (r *sseReader) next(t *testing.T) (sseEvent, bool) {
	t.Helper()
	var cur sseEvent
	for r.sc.Scan() {
		line := r.sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "" && cur.name != "":
			return cur, true
		}
	}
	if err := r.sc.Err(); err != nil {
		t.Fatalf("reading event stream: %v", err)
	}
	return sseEvent{}, false
}

// readSSE consumes an event stream until the server closes it.
func readSSE(t *testing.T, body io.Reader) []sseEvent {
	t.Helper()
	r := newSSEReader(body)
	var evs []sseEvent
	for {
		ev, ok := r.next(t)
		if !ok {
			return evs
		}
		evs = append(evs, ev)
	}
}

// TestEventsStream: /runs/{id}/events opens with a status frame, emits
// progress frames as job counters move, pushes the terminal status
// frame promptly, and then ends the stream. The svc-gated run's first
// job waits for the opening frame to be read and its last job for a
// progress frame, so the stream must carry progress however slowly
// the client connects.
func TestEventsStream(t *testing.T) {
	gates := &eventGates{opened: make(chan struct{}), progressed: make(chan struct{})}
	streamGates.Store(gates)
	_, ts := newServerCfg(t, t.TempDir(), service.Config{Workers: 1, EventPoll: 10 * time.Millisecond})
	id := submit(t, ts.URL, `{"ids":["svc-gated"],"seeds":[1,2,3,4]}`)
	// The timeout only bounds a broken stream; a working one ends long
	// before it.
	client := &http.Client{Timeout: time.Minute}
	resp, err := client.Get(ts.URL + "/runs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	stream := newSSEReader(resp.Body)
	var evs []sseEvent
	progressed := false
	for {
		ev, ok := stream.next(t)
		if !ok {
			break
		}
		evs = append(evs, ev)
		switch {
		case len(evs) == 1:
			close(gates.opened)
		case ev.name == "progress" && !progressed:
			close(gates.progressed)
			progressed = true
		}
	}
	if len(evs) < 2 {
		t.Fatalf("got %d event frames, want at least an opening and a terminal status", len(evs))
	}
	if evs[0].name != "status" {
		t.Errorf("first frame is %q, want status", evs[0].name)
	}
	var last struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal([]byte(evs[len(evs)-1].data), &last); err != nil {
		t.Fatalf("terminal frame %q: %v", evs[len(evs)-1].data, err)
	}
	if evs[len(evs)-1].name != "status" || last.Status != service.StatusDone {
		t.Errorf("terminal frame = %s %q, want status done", evs[len(evs)-1].name, last.Status)
	}
	progress, lastDone := 0, -1
	for _, ev := range evs {
		if ev.name != "progress" {
			continue
		}
		progress++
		var p struct {
			TotalJobs int `json:"total_jobs"`
			DoneJobs  int `json:"done_jobs"`
		}
		if err := json.Unmarshal([]byte(ev.data), &p); err != nil {
			t.Fatalf("progress frame %q: %v", ev.data, err)
		}
		if p.TotalJobs != 4 || p.DoneJobs <= lastDone {
			t.Errorf("progress frame %+v: want total_jobs 4 and strictly increasing done_jobs (prev %d)", p, lastDone)
		}
		lastDone = p.DoneJobs
	}
	if progress < 1 {
		t.Errorf("no progress frames in %d-frame stream", len(evs))
	}
	// A finished run's stream is just its terminal frame.
	resp2, err := http.Get(ts.URL + "/runs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if evs := readSSE(t, resp2.Body); len(evs) != 1 || evs[0].name != "status" {
		t.Errorf("finished run stream = %+v, want exactly one status frame", evs)
	}
}

// TestAdmissionControl429: submissions beyond MaxQueued are refused
// with 429 + Retry-After, and capacity freed by a finishing run is
// usable again.
func TestAdmissionControl429(t *testing.T) {
	_, ts := newServerCfg(t, t.TempDir(), service.Config{Workers: 1, MaxQueued: 1})
	id := submit(t, ts.URL, `{"ids":["svc-block"],"seeds":[1]}`)
	resp, err := http.Post(ts.URL+"/runs", "application/json", strings.NewReader(`{"ids":["fig2a"],"seeds":[1]}`))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit over the bound: code %d body %s, want 429", resp.StatusCode, raw)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", ra)
	}
	if !strings.Contains(string(raw), "limit 1") {
		t.Errorf("429 body %q does not name the limit", raw)
	}
	if code, _ := doJSON(t, http.MethodDelete, ts.URL+"/runs/"+id, "", nil); code != http.StatusAccepted {
		t.Fatalf("cancelling the parked run: code %d", code)
	}
	awaitStatus(t, ts.URL, id, service.StatusCancelled)
	id2 := submit(t, ts.URL, `{"ids":["fig2a"],"seeds":[1]}`)
	awaitStatus(t, ts.URL, id2, service.StatusDone)
}

// TestResultPromptUnderLoad: fetching a done run's result must not
// queue behind live compute — reconstruction is decode-only and rides
// the priority lane, so it returns promptly even when every worker is
// parked on another run.
func TestResultPromptUnderLoad(t *testing.T) {
	_, ts := newServerCfg(t, t.TempDir(), service.Config{Workers: 1})
	want := benchBytes(t, experiments.Options{IDs: []string{"tab1"}, Seeds: []int64{1}, Concurrency: 1}, "csv")
	done := submit(t, ts.URL, `{"ids":["tab1"],"seeds":[1]}`)
	awaitStatus(t, ts.URL, done, service.StatusDone)
	parked := submit(t, ts.URL, `{"ids":["svc-block"],"seeds":[1]}`)
	start := time.Now()
	code, body, _ := fetchResult(t, ts.URL, done, "csv")
	elapsed := time.Since(start)
	if code != http.StatusOK || body != want {
		t.Fatalf("result under load: code %d, bytes match %v", code, body == want)
	}
	if elapsed > 3*time.Second {
		t.Errorf("result took %v with the pool saturated; reconstruction queued behind compute", elapsed)
	}
	if code, _ := doJSON(t, http.MethodDelete, ts.URL+"/runs/"+parked, "", nil); code != http.StatusAccepted {
		t.Fatalf("cancelling parked run: code %d", code)
	}
	awaitStatus(t, ts.URL, parked, service.StatusCancelled)
}

// TestRoundRobinFairness: with one worker, a small submission arriving
// behind a large one must finish while the large one is still running —
// the dispatcher hands out jobs round-robin across submissions instead
// of draining them FIFO.
func TestRoundRobinFairness(t *testing.T) {
	sched := experiments.NewScheduler(experiments.SchedulerConfig{Workers: 1})
	defer sched.Close()
	big, err := sched.Submit(context.Background(), experiments.RunSpec{
		IDs: []string{"svc-work"}, Seeds: manySeeds(20),
	})
	if err != nil {
		t.Fatal(err)
	}
	small, err := sched.Submit(context.Background(), experiments.RunSpec{
		IDs: []string{"svc-work"}, Seeds: []int64{101, 102},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := small.Report(); err != nil {
		t.Fatalf("small run: %v", err)
	}
	p := big.Progress()
	if p.DoneJobs >= p.TotalJobs {
		t.Errorf("big run already finished (%d/%d jobs) when the small run completed — dispatch is FIFO, not round-robin",
			p.DoneJobs, p.TotalJobs)
	}
	if _, err := big.Report(); err != nil {
		t.Fatalf("big run: %v", err)
	}
}

// TestPriorityLaneJumpsQueue: a priority submission must be served
// before queued normal work even though it arrived last.
func TestPriorityLaneJumpsQueue(t *testing.T) {
	sched := experiments.NewScheduler(experiments.SchedulerConfig{Workers: 1})
	defer sched.Close()
	big, err := sched.Submit(context.Background(), experiments.RunSpec{
		IDs: []string{"svc-work"}, Seeds: manySeeds(20),
	})
	if err != nil {
		t.Fatal(err)
	}
	pri, err := sched.SubmitPriority(context.Background(), experiments.RunSpec{
		IDs: []string{"svc-work"}, Seeds: []int64{201, 202},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pri.Report(); err != nil {
		t.Fatalf("priority run: %v", err)
	}
	p := big.Progress()
	if p.DoneJobs >= p.TotalJobs {
		t.Errorf("big run already finished (%d/%d jobs) when the priority run completed — the priority lane is not served first",
			p.DoneJobs, p.TotalJobs)
	}
	if _, err := big.Report(); err != nil {
		t.Fatalf("big run: %v", err)
	}
}

// manySeeds returns seeds 1..n.
func manySeeds(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i + 1)
	}
	return out
}

// TestGCEndpoint: POST /admin/gc removes cells left behind by deleted
// runs under the retention policy, answers 409 when retention is
// disabled, and never touches cells a listed run still references.
func TestGCEndpoint(t *testing.T) {
	dir := t.TempDir()
	_, ts := newServerCfg(t, dir, service.Config{Workers: 2, Retention: time.Nanosecond})
	keep := submit(t, ts.URL, `{"ids":["tab1"],"seeds":[1]}`)
	awaitStatus(t, ts.URL, keep, service.StatusDone)
	drop := submit(t, ts.URL, `{"ids":["fig2a"],"seeds":[7]}`)
	awaitStatus(t, ts.URL, drop, service.StatusDone)
	if code, _ := doJSON(t, http.MethodDelete, ts.URL+"/runs/"+drop, "", nil); code != http.StatusNoContent {
		t.Fatalf("deleting run: code %d", code)
	}
	var res store.GCResult
	if code, raw := doJSON(t, http.MethodPost, ts.URL+"/admin/gc", "", &res); code != http.StatusOK {
		t.Fatalf("POST /admin/gc: code %d body %s", code, raw)
	}
	if res.Removed < 1 {
		t.Errorf("gc removed %d cells, want the deleted run's cell gone: %+v", res.Removed, res)
	}
	// The kept run still serves the same bytes after GC (invariant 8).
	want := benchBytes(t, experiments.Options{IDs: []string{"tab1"}, Seeds: []int64{1}, Concurrency: 1}, "csv")
	if code, body, _ := fetchResult(t, ts.URL, keep, "csv"); code != http.StatusOK || body != want {
		t.Errorf("kept run after gc: code %d, bytes match %v", code, body == want)
	}
	// fig2a's cell is gone from disk.
	cells, err := filepath.Glob(filepath.Join(dir, "cells", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if strings.Contains(filepath.Base(c), "fig2a") {
			t.Errorf("unreferenced cell %s survived gc", c)
		}
	}
	if _, err := os.Stat(dir); err != nil {
		t.Fatal(err)
	}

	// Retention unset → GC refuses.
	_, ts2 := newServer(t, t.TempDir(), 1)
	if code, raw := doJSON(t, http.MethodPost, ts2.URL+"/admin/gc", "", nil); code != http.StatusConflict {
		t.Errorf("gc without retention: code %d body %s, want 409", code, raw)
	}
}
