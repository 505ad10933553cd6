package metasurface

// The response table: memoization of the per-axis circuit evaluations
// underneath every Surface query. The physics is pure — an axis response
// depends only on (design, axis, frequency, bias) and a QWP response only
// on (design, frequency) — so repeated evaluations at the same operating
// point (a bias-plane FullScan revisits each per-axis bias 21 times; the
// QWP boards never change at all) can be computed once and shared, bit
// for bit. Because the design — not the Surface — determines the result,
// one table serves every Surface of a design (see table.go for the
// fingerprint-keyed registry and the persisted export/import forms). The
// table is transparent by construction: a miss runs exactly the
// evaluation the uncached path runs, and a hit returns the stored result
// of that same evaluation, so cached and uncached outputs are
// bit-identical (determinism invariants #5 and #10 in ARCHITECTURE.md).
//
// Concurrency model (the contention-free read path). The memoized
// entries live in immutable map snapshots published through an
// atomic.Pointer: a hit is one atomic load plus one map read — no lock,
// no allocation, no shared cache line written beyond a sharded counter.
// Writers batch fresh entries in a pending map under a plain mutex and
// publish copy-on-write: a published map is never written again, so a
// reader holding the old snapshot sees a consistent (merely stale) view
// and the race detector can prove the absence of torn reads. Concurrent
// misses on the same key are grouped singleflight-style: exactly one
// goroutine evaluates, the rest wait on its completion channel, so
// redundant evaluation is bounded at one per distinct key. The one
// hit/miss counter (globalStats) is sharded across cache-line-padded
// slots (statShard) so hit accounting never bounces one hot line
// between cores. This scalar lookup is the only way into a table:
// JonesBatch (batch.go) loops the scalar lookup point by point.

import (
	"math"
	"sync"
	"sync/atomic"
)

// CacheStats reports the lookup counters of a response cache: Hits is the
// number of evaluations answered from memory, Misses the number computed
// (and stored). Counters are monotone over the cache's lifetime. With
// concurrent misses grouped singleflight-style, a miss means "this
// lookup ran the evaluation" — waiters answered by another goroutine's
// in-flight evaluation count as hits, so Misses equals the number of
// distinct evaluations performed.
type CacheStats struct {
	Hits, Misses uint64
}

// Lookups returns the total number of cache consultations.
func (c CacheStats) Lookups() uint64 { return c.Hits + c.Misses }

// HitRate returns Hits/Lookups in [0, 1]; zero for an unused cache.
func (c CacheStats) HitRate() float64 {
	if n := c.Lookups(); n > 0 {
		return float64(c.Hits) / float64(n)
	}
	return 0
}

// Sub returns the counter deltas c − earlier, for windowed measurements
// over the monotone global counters.
func (c CacheStats) Sub(earlier CacheStats) CacheStats {
	return CacheStats{Hits: c.Hits - earlier.Hits, Misses: c.Misses - earlier.Misses}
}

// cachingOff flips the package-wide cache switch; the zero value means
// caching is ON (the default). Stored inverted so the default needs no
// init.
var cachingOff atomic.Bool

// SetCaching switches response caching on or off process-wide. It is
// the hook tests and benchmarks use to reach the uncached reference
// path that determinism invariants 5, 10 and 11 compare against
// (ARCHITECTURE.md); no command exposes it. The switch is consulted per
// evaluation, so it can be flipped between runs; outputs are
// bit-identical either way.
//
//lint:allow unused test hook: the uncached reference path tests and *Uncached benchmarks compare against
func SetCaching(on bool) { cachingOff.Store(!on) }

// CachingEnabled reports whether response caching is on.
func CachingEnabled() bool { return !cachingOff.Load() }

// statShards is the number of padded slots of the hit/miss counter.
// Surfaces are dealt slots round-robin at construction, so up to
// statShards concurrently hot surfaces account their lookups without
// ever contending on one cache line.
const statShards = 16

// statShard is one slot of a sharded counter pair, padded out to a full
// cache line so neighbouring slots never share one: concurrent Add
// traffic on adjacent slots would otherwise bounce the line between
// cores, which is exactly the cost sharding exists to remove.
type statShard struct {
	hits, misses atomic.Uint64
	_            [48]byte
}

// shardedStats is a pair of monotone counters spread over padded shards.
// A lookup touches one shard; loads sum all of them, so the totals stay
// exact while the hot path never serializes on a single counter word.
type shardedStats struct {
	shards [statShards]statShard
}

// count folds one lookup outcome into the given shard.
func (s *shardedStats) count(shard uint32, hit bool) {
	sh := &s.shards[shard%statShards]
	if hit {
		sh.hits.Add(1)
	} else {
		sh.misses.Add(1)
	}
}

// load sums every shard into one CacheStats view.
func (s *shardedStats) load() CacheStats {
	var out CacheStats
	for i := range s.shards {
		out.Hits += s.shards[i].hits.Load()
		out.Misses += s.shards[i].misses.Load()
	}
	return out
}

// reset zeroes every shard (test isolation).
func (s *shardedStats) reset() {
	for i := range s.shards {
		s.shards[i].hits.Store(0)
		s.shards[i].misses.Store(0)
	}
}

// globalStats is the response tables' one hit/miss counter: every
// lookup against any design table in the process counts here exactly
// once, so harnesses (llama-bench, the experiment scheduler, the perf
// benchmark, a fleet worker's warmth report) read cache effectiveness
// without plumbing individual surfaces out of runners. Windowed counts
// come from GlobalCacheStats().Sub(before).
var globalStats shardedStats

// shardSeq deals out counter-shard slots round-robin at Surface
// construction, so concurrently built surfaces (one per worker in the
// scheduler and benchmarks) land on distinct shards.
var shardSeq atomic.Uint32

// nextStatShard returns the next round-robin shard slot.
func nextStatShard() uint32 { return shardSeq.Add(1) % statShards }

// GlobalCacheStats returns the process-wide response-table counters,
// summed over every design table. The counters are monotone; callers
// wanting a windowed measurement snapshot before/after and use
// CacheStats.Sub.
func GlobalCacheStats() CacheStats { return globalStats.load() }

// ResetGlobalCacheStats zeroes the process-wide counters (test isolation).
//
//lint:allow unused test hook: isolates the process-wide counters between tests
func ResetGlobalCacheStats() { globalStats.reset() }

// axisKey identifies one per-axis evaluation by the exact float bit
// patterns of its operating point, so keys never alias across distinct
// floats (and NaN/−0 edge cases stay distinct rather than colliding).
type axisKey struct {
	axis Axis
	f, v uint64
}

// flightCall tracks one in-flight evaluation: the computing goroutine
// fills val and closes done; waiters block on done and read val. val is
// written before done is closed, so the close is the publication edge.
type flightCall[V any] struct {
	done chan struct{}
	val  V
}

// snapMap is the contention-free memoization core: an immutable map
// snapshot published through an atomic pointer, plus a mutex-guarded
// pending map that batches fresh entries between copy-on-write
// publishes and a singleflight registry for in-flight evaluations.
//
// Reads probe the snapshot first (lock-free, allocation-free); only a
// snapshot miss takes the mutex, where the entry is found in pending,
// joined in flight, or computed exactly once. Publishes copy the union
// of snapshot and pending into a fresh map once pending reaches a
// quarter of the snapshot (maybePublishLocked), so copy work stays
// amortized O(1) per insert and fresh entries still reach the lock-free
// path quickly.
type snapMap[K comparable, V any] struct {
	// snap is the published immutable snapshot. The pointed-to map is
	// never mutated after Store — readers need no lock and the old
	// snapshot stays valid for readers still holding it.
	snap atomic.Pointer[map[K]V]

	mu      sync.Mutex
	pending map[K]V
	flight  map[K]*flightCall[V]

	// version, when set, is the owning table's version word: every
	// insert of a new entry moves it to a fresh value (see bumpLocked).
	version *atomic.Uint64
}

// newSnapMap returns an empty snapMap ready for use.
func newSnapMap[K comparable, V any]() *snapMap[K, V] {
	m := &snapMap[K, V]{
		pending: make(map[K]V),
		flight:  make(map[K]*flightCall[V]),
	}
	empty := make(map[K]V)
	m.snap.Store(&empty)
	return m
}

// get answers from the published snapshot only: one atomic load and one
// map read — no lock, no allocation. ok=false does not mean absent, only
// not yet published; lookup handles the slow path.
func (m *snapMap[K, V]) get(k K) (V, bool) {
	v, ok := (*m.snap.Load())[k]
	return v, ok
}

// size returns the number of distinct entries (published + pending).
func (m *snapMap[K, V]) size() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(*m.snap.Load()) + len(m.pending)
}

// lookup returns the value for k, calling eval at most once
// process-wide per key: concurrent callers missing the same key wait on
// the first caller's in-flight evaluation. hit=false means exactly
// "this call ran eval" — pending finds and flight waits report hits.
func (m *snapMap[K, V]) lookup(k K, eval func() V) (V, bool) {
	if v, ok := m.get(k); ok {
		return v, true
	}
	m.mu.Lock()
	if v, ok := (*m.snap.Load())[k]; ok { // republished since the fast probe
		m.mu.Unlock()
		return v, true
	}
	if v, ok := m.pending[k]; ok {
		m.mu.Unlock()
		return v, true
	}
	if c, ok := m.flight[k]; ok {
		m.mu.Unlock()
		<-c.done
		return c.val, true
	}
	c := &flightCall[V]{done: make(chan struct{})}
	m.flight[k] = c
	m.mu.Unlock()
	c.val = eval()
	m.mu.Lock()
	m.pending[k] = c.val
	delete(m.flight, k)
	m.bumpLocked()
	m.maybePublishLocked()
	m.mu.Unlock()
	close(c.done)
	return c.val, false
}

// maybePublishLocked publishes when pending has grown to a quarter of
// the snapshot (or the snapshot is still empty): each publish then
// copies at most ~5× the entries admitted since the last one, keeping
// total copy work linear in the number of distinct keys — amortized
// O(1) per miss — while fresh entries still reach the lock-free
// snapshot quickly.
func (m *snapMap[K, V]) maybePublishLocked() {
	if n := len(m.pending); n > 0 && 4*n >= len(*m.snap.Load()) {
		m.publishLocked(m.unionLocked(0))
	}
}

// unionLocked returns a fresh map holding every published and pending
// entry, sized for extra more. It is the one copy every publish and
// export makes.
func (m *snapMap[K, V]) unionLocked(extra int) map[K]V {
	old := *m.snap.Load()
	out := make(map[K]V, len(old)+len(m.pending)+extra)
	for _, src := range [2]map[K]V{old, m.pending} {
		//lint:allow purity copying a map into a fresh map is order-independent
		for k, v := range src {
			out[k] = v
		}
	}
	return out
}

// publishLocked publishes merged, a fresh union from unionLocked, and
// empties pending. The retired snapshot is never written again —
// readers still holding it see a consistent, merely stale view — which
// is the entire safety argument: every published map is immutable.
func (m *snapMap[K, V]) publishLocked(merged map[K]V) {
	m.snap.Store(&merged)
	m.pending = make(map[K]V)
}

// merge folds imported entries into the map and publishes immediately
// (imports are rare and bulk, so the amortizing threshold would only
// delay warm starts). Existing entries win, though by purity both sides
// hold identical bits. keys and vals are parallel slices.
func (m *snapMap[K, V]) merge(keys []K, vals []V) {
	m.mu.Lock()
	merged := m.unionLocked(len(keys))
	grew := false
	for i, k := range keys {
		if _, ok := merged[k]; !ok {
			merged[k] = vals[i]
			grew = true
		}
	}
	m.publishLocked(merged)
	if grew {
		m.bumpLocked()
	}
	m.mu.Unlock()
}

// tableVersions is the process-wide source of table versions. Drawing
// every version from one counter means a value is never stored twice —
// not even by a table recreated after ResetResponseTables — so an
// unchanged version proves that no entry was inserted since it was read.
var tableVersions atomic.Uint64

// bumpLocked moves the owning table's version to a fresh value after an
// insert. It runs under m.mu after the entry is in pending or the
// snapshot, so a reader that observes the new version also observes the
// entry in any export taken afterwards.
func (m *snapMap[K, V]) bumpLocked() {
	if m.version != nil {
		m.version.Store(tableVersions.Add(1))
	}
}

// snapshot returns a private union of published and pending entries;
// the caller owns the returned map (export path).
func (m *snapMap[K, V]) snapshot() map[K]V {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.unionLocked(0)
}

// responseTable memoizes the per-axis and per-frequency QWP evaluations
// of one design, shared by every Surface of that design. Both entry
// kinds live in snapMaps, so lookups are lock-free snapshot reads and
// concurrent misses on one key evaluate once (see the snapMap doc).
// version changes whenever either map gains an entry, so persistence
// can tell a table that grew from one that still matches the record it
// was loaded from (table.go).
type responseTable struct {
	fingerprint string

	axis *snapMap[axisKey, axisResponse]
	qwp  *snapMap[uint64, *qwpResponse]

	version atomic.Uint64
}

// newResponseTable returns an empty table for one design fingerprint,
// at a version no other table has held.
func newResponseTable(fp string) *responseTable {
	t := &responseTable{
		fingerprint: fp,
		axis:        newSnapMap[axisKey, axisResponse](),
		qwp:         newSnapMap[uint64, *qwpResponse](),
	}
	t.version.Store(tableVersions.Add(1))
	t.axis.version = &t.version
	t.qwp.version = &t.version
	return t
}

// axisAt returns the memoized per-axis response, computing and storing
// it on first use. shard selects the caller's counter slot. The hit
// path is one snapshot probe plus one sharded counter add — no lock, no
// allocation, and no copy of the design, which only a miss reads.
func (t *responseTable) axisAt(d *Design, axis Axis, f, v float64, shard uint32) axisResponse {
	key := axisKey{axis: axis, f: math.Float64bits(f), v: math.Float64bits(v)}
	if r, ok := t.axis.get(key); ok {
		globalStats.count(shard, true)
		return r
	}
	r, hit := t.axis.lookup(key, func() axisResponse { return d.axisEval(axis, f, v) })
	globalStats.count(shard, hit)
	return r
}

// qwpAt returns the memoized QWP response at frequency f, computing and
// storing it on first use. The table holds each response behind a
// pointer, so a hit hands out the stored entry, read-only, instead of
// copying its 272 bytes; the hit path performs no allocation.
func (t *responseTable) qwpAt(d *Design, f float64, shard uint32) *qwpResponse {
	key := math.Float64bits(f)
	if r, ok := t.qwp.get(key); ok {
		globalStats.count(shard, true)
		return r
	}
	r, hit := t.qwp.lookup(key, func() *qwpResponse { q := d.qwpEval(f); return &q })
	globalStats.count(shard, hit)
	return r
}
