package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 20)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 20..1: percentile must sort
	}
	for _, c := range []struct {
		p    float64
		want float64
	}{{50, 10}, {95, 19}, {100, 20}, {1, 1}} {
		v, n := percentile(xs, c.p)
		if v != c.want || n != 20 {
			t.Errorf("p%g = %g over %d samples, want %g over 20", c.p, v, n, c.want)
		}
	}
	if xs[0] != 20 {
		t.Error("percentile reordered its input")
	}
	if v, n := percentile(nil, 95); v != 0 || n != 0 {
		t.Errorf("empty p95 = %g over %d, want 0 over 0", v, n)
	}
	if v, n := percentile([]float64{7}, 95); v != 7 || n != 1 {
		t.Errorf("single-sample p95 = %g over %d, want 7 over 1", v, n)
	}
	// A p95 resting on ten samples beyond it needs 200 of them.
	if got := beyond(200, 95); got != 10 {
		t.Errorf("beyond(200, 95) = %d, want 10", got)
	}
	if got := beyond(199, 95); got != 9 {
		t.Errorf("beyond(199, 95) = %d, want 9", got)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(msec int) time.Time { return t0.Add(time.Duration(msec) * time.Millisecond) }
	spans := []span{
		{ID: 1, Trace: 1, Name: "bench.pass", Start: at(0), End: at(100)},
		// Two overlapping children cover [10, 60]; a third runs past the
		// parent's end and counts only up to it.
		{ID: 2, Parent: 1, Trace: 1, Name: "experiments.compute", Start: at(10), End: at(40)},
		{ID: 3, Parent: 1, Trace: 1, Name: "experiments.compute", Start: at(30), End: at(60)},
		{ID: 4, Parent: 1, Trace: 1, Name: "store.tables_save", Start: at(90), End: at(120)},
		// A grandchild inside span 4 leaves it 20ms of self time.
		{ID: 5, Parent: 4, Trace: 1, Name: "store.fsync", Start: at(95), End: at(105)},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"bench":       40 * time.Millisecond,
		"experiments": 60 * time.Millisecond,
		"store":       30 * time.Millisecond,
	}
	for layer, w := range want {
		if got[layer] != w {
			t.Errorf("self time of %s = %v, want %v", layer, got[layer], w)
		}
	}
}

func TestArrivalsReproducible(t *testing.T) {
	a := arrivals(7, 60, 20*time.Second)
	b := arrivals(7, 60, 20*time.Second)
	c := arrivals(8, 60, 20*time.Second)
	if !slices.Equal(a, b) {
		t.Error("same seed produced different schedules")
	}
	if slices.Equal(a, c) {
		t.Error("different seeds produced the same schedule")
	}
	// 60/s over 20s: 1200 expected, Poisson spread ≈ ±35.
	if len(a) < 1000 || len(a) > 1400 {
		t.Errorf("%d arrivals in 20s at 60/s", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("arrival %d at %v precedes %v", i, a[i], a[i-1])
		}
	}
	_, p1 := servePlan(7, 5*time.Second)
	_, p2 := servePlan(7, 5*time.Second)
	if len(p1) != len(p2) {
		t.Fatalf("same seed planned %d and %d sessions", len(p1), len(p2))
	}
	for i := range p1 {
		if p1[i].due != p2[i].due || p1[i].class != p2[i].class || !slices.Equal(p1[i].body.IDs, p2[i].body.IDs) {
			t.Fatalf("session %d differs between identical plans", i)
		}
	}
}

// stubRT answers every request with a fixed status.
type stubRT int

func (s stubRT) RoundTrip(*http.Request) (*http.Response, error) {
	return &http.Response{StatusCode: int(s), Body: io.NopCloser(strings.NewReader(""))}, nil
}

func TestTimingTransportEmptyLease(t *testing.T) {
	post := func(tt *timingTransport, path string) {
		req, err := http.NewRequest(http.MethodPost, "http://coordinator"+path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tt.RoundTrip(req); err != nil {
			t.Fatal(err)
		}
	}
	empty := &timingTransport{next: stubRT(http.StatusNoContent)}
	post(empty, "/fleet/lease") // outside a pass: ignored
	empty.begin(nil, 0)
	post(empty, "/fleet/lease")
	p := empty.finish()
	if p.leaseCalls != 1 || p.empty != 1 || len(p.leaseRTT) != 0 || len(p.grants) != 0 {
		t.Errorf("204 lease: calls=%d empty=%d grants=%d, want 1 1 0", p.leaseCalls, p.empty, len(p.grants))
	}
	granted := &timingTransport{next: stubRT(http.StatusOK)}
	granted.begin(&tracer{}, 1)
	post(granted, "/fleet/lease")
	post(granted, "/fleet/complete")
	p = granted.finish()
	if p.leaseCalls != 1 || p.empty != 0 || len(p.leaseRTT) != 1 || len(p.completeRTT) != 1 || p.completeBytes != 2 {
		t.Errorf("200 lease: calls=%d empty=%d grants=%d completes=%d bytes=%d, want 1 0 1 1 2",
			p.leaseCalls, p.empty, len(p.leaseRTT), len(p.completeRTT), p.completeBytes)
	}
	if n := len(granted.tr.snapshot()); n != 2 {
		t.Errorf("%d spans recorded, want 2", n)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric tables here and the
// repository's BENCHMARK.json in step.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark reports %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer())
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json lists workload %q, which the benchmark does not run", w.Name)
		}
	}
}
