package metasurface

// A/B benchmark of the contention-free read path. The snapshot table
// answers warm lookups with one atomic load, one map read and two
// sharded counter adds — no lock, no allocation — while the mutexTable
// replica below reproduces the RWMutex+shared-counter design it
// replaced. CI runs both with -cpu 1,8 and gates on the snapshot path
// allocating nothing and clearing ≥2× the mutex throughput at 8
// goroutines (BENCH_10.json): an RLock still writes the lock word, so
// its cache line bounces between every reading core exactly like a
// shared counter would. BenchmarkTableBatchAxis times a warm 64-point
// row through that same scalar path, the only way into a table.

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/llama-surface/llama/internal/units"
)

// benchKey is one per-axis operating point of the benchmark working set.
type benchKey struct {
	axis Axis
	f, v float64
}

// flush publishes any pending entries immediately, so the benchmarks
// below time only the steady-state lock-free read path.
func (m *snapMap[K, V]) flush() {
	m.mu.Lock()
	if len(m.pending) > 0 {
		m.publishLocked(m.unionLocked(0))
	}
	m.mu.Unlock()
}

// benchAxisKeys is the hot working set both tables are measured on:
// enough keys to defeat trivial branch prediction, few enough to stay
// cache-resident, the regime of a warm bias-plane scan.
func benchAxisKeys() []benchKey {
	pts := make([]benchKey, 64)
	for i := range pts {
		axis := AxisX
		if i%2 == 1 {
			axis = AxisY
		}
		pts[i] = benchKey{axis: axis, f: 2.0e9 + float64(i)*1.1e7, v: float64(i%31) + 0.25}
	}
	return pts
}

// mutexTable is a benchmark-only replica of the RWMutex response table
// the snapshot design replaced: one reader-writer lock around a plain
// map, with a single shared counter pair — the baseline the ≥2×
// parallel-throughput gate in CI measures against.
type mutexTable struct {
	mu   sync.RWMutex
	axis map[axisKey]axisResponse

	hits, misses atomic.Uint64
}

func newMutexTable() *mutexTable {
	return &mutexTable{axis: make(map[axisKey]axisResponse)}
}

func (t *mutexTable) axisAt(d *Design, axis Axis, f, v float64) axisResponse {
	key := axisKey{axis: axis, f: math.Float64bits(f), v: math.Float64bits(v)}
	t.mu.RLock()
	r, ok := t.axis[key]
	t.mu.RUnlock()
	if ok {
		t.hits.Add(1)
		return r
	}
	t.mu.Lock()
	if r, ok = t.axis[key]; !ok {
		r = d.axisEval(axis, f, v)
		t.axis[key] = r
	}
	t.mu.Unlock()
	t.misses.Add(1)
	return r
}

// BenchmarkTableParallelSnapshot measures the steady-state hit path of
// the snapshot table under parallel readers (run with -cpu 1,8). The
// working set is prewarmed and flushed into a published snapshot, so
// every timed lookup is the lock-free fast path; the 0 allocs/op this
// reports is a CI gate.
func BenchmarkTableParallelSnapshot(b *testing.B) {
	d := OptimizedFR4Design(units.DefaultCarrierHz)
	tbl := newResponseTable("bench-snapshot")
	pts := benchAxisKeys()
	for _, p := range pts {
		tbl.axisAt(&d, p.axis, p.f, p.v, 0)
	}
	tbl.axis.flush()
	var seq atomic.Uint32
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		shard := seq.Add(1)
		i := int(shard)
		for pb.Next() {
			p := pts[i%len(pts)]
			i++
			r := tbl.axisAt(&d, p.axis, p.f, p.v, shard)
			if r.s.Z0 == 0 {
				b.Fatal("degenerate response")
			}
		}
	})
}

// BenchmarkTableParallelMutex is the same workload against the RWMutex
// replica — the denominator of the CI speedup gate.
func BenchmarkTableParallelMutex(b *testing.B) {
	d := OptimizedFR4Design(units.DefaultCarrierHz)
	tbl := newMutexTable()
	pts := benchAxisKeys()
	for _, p := range pts {
		tbl.axisAt(&d, p.axis, p.f, p.v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var i int
		for pb.Next() {
			p := pts[i%len(pts)]
			i++
			r := tbl.axisAt(&d, p.axis, p.f, p.v)
			if r.s.Z0 == 0 {
				b.Fatal("degenerate response")
			}
		}
	})
}

// BenchmarkTableBatchAxis measures one warm 64-point axis row — the
// per-row unit of JonesBatch — read point by point through the scalar
// lookup path that JonesBatch loops.
func BenchmarkTableBatchAxis(b *testing.B) {
	d := OptimizedFR4Design(units.DefaultCarrierHz)
	tbl := newResponseTable("bench-batch")
	pts := benchAxisKeys()
	for _, p := range pts {
		tbl.axisAt(&d, p.axis, p.f, p.v, 0)
	}
	tbl.axis.flush()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pts {
			if r := tbl.axisAt(&d, p.axis, p.f, p.v, 0); r.s.Z0 == 0 {
				b.Fatal("degenerate response")
			}
		}
	}
}
