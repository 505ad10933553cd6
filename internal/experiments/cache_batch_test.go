package experiments

// Run-level contracts of the memoized physics layer and row batching:
// the response cache and point batching are performance features, so the
// tables they produce must be bit-identical to the uncached, unbatched
// serial reference for any worker count. Run under -race in CI.

import (
	"context"
	"errors"
	"strings"
	"testing"

	"github.com/llama-surface/llama/internal/metasurface"
)

// cacheTestIDs are surface-heavy experiments: bias-plane scans (fig15,
// fig16) exercise the axis cache across dense grids; tab1 exercises the
// rotation path.
var cacheTestIDs = []string{"fig15", "fig16", "tab1"}

// TestCachedMatchesUncached: with the response cache enabled the engine
// must reproduce the uncached serial tables bit-for-bit, at 1 and 8
// workers, sharded and not.
func TestCachedMatchesUncached(t *testing.T) {
	ctx := context.Background()
	metasurface.SetCaching(false)
	ref, err := Execute(ctx, Options{Concurrency: 1, IDs: cacheTestIDs, Seeds: []int64{7}})
	metasurface.SetCaching(true)
	if err != nil {
		t.Fatalf("uncached reference: %v", err)
	}
	uncached := ref.Results
	for _, workers := range []int{1, 8} {
		for _, shard := range []bool{false, true} {
			rep, err := Execute(ctx, Options{Concurrency: workers, IDs: cacheTestIDs, ShardRows: shard, Seeds: []int64{7}})
			if err != nil {
				t.Fatalf("workers %d shard %v: %v", workers, shard, err)
			}
			got := rep.Results
			if len(got) != len(uncached) {
				t.Fatalf("workers %d shard %v: %d results, want %d", workers, shard, len(got), len(uncached))
			}
			for i := range got {
				if !sameResult(got[i], uncached[i]) {
					t.Errorf("workers %d shard %v: cached %q differs from uncached reference",
						workers, shard, got[i].ID)
				}
			}
		}
	}
}

// TestBatchedMatchesSerial: grouping sweep points into per-job batches
// must not change the assembled tables, for any batch size (including
// one larger than any axis) or worker count.
func TestBatchedMatchesSerial(t *testing.T) {
	ctx := context.Background()
	serial, err := Execute(ctx, Options{Concurrency: 1, IDs: cacheTestIDs, Seeds: []int64{42}})
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	want := serial.Results
	for _, batch := range []int{2, 3, 1000} {
		for _, workers := range []int{1, 8} {
			rep, err := Execute(ctx, Options{Concurrency: workers, IDs: cacheTestIDs, ShardRows: true, BatchRows: batch, Seeds: []int64{42}})
			if err != nil {
				t.Fatalf("batch %d workers %d: %v", batch, workers, err)
			}
			got := rep.Results
			for i := range got {
				if !sameResult(got[i], want[i]) {
					t.Errorf("batch %d workers %d: %q differs from serial", batch, workers, got[i].ID)
				}
			}
		}
	}
}

// TestBatchedMidBatchErrorSalvage: a point failure inside a batch must
// name the point, leave the batch's remaining points unrun, and salvage
// the completed prefix exactly like the unbatched path.
func TestBatchedMidBatchErrorSalvage(t *testing.T) {
	boom := errors.New("boom")
	s := countingSweep("zz-batchfail", 7)
	inner := s.Point
	s.Point = func(ctx context.Context, seed int64, i int) (PointResult, error) {
		if i == 4 {
			return PointResult{}, boom
		}
		return inner(ctx, seed, i)
	}
	tempSweep(t, s)

	rep, err := Execute(context.Background(), Options{Concurrency: 1, ShardRows: true, BatchRows: 3, IDs: []string{"zz-batchfail"}, Seeds: []int64{7}})
	if err == nil {
		t.Fatal("mid-batch failure not reported")
	}
	for _, want := range []string{"zz-batchfail", "seed 7", "point 4/7", "boom"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("err %q does not name %q", err, want)
		}
	}
	if len(rep.Salvaged) != 1 || len(rep.Salvaged[0].Rows) != 4 {
		t.Fatalf("salvage = %+v, want one partial table with 4 rows", rep.Salvaged)
	}
}

// TestReportCarriesCacheStats: a run carries exact run-wide totals —
// the global counter's window over the run — and the rendered summary
// surfaces them.
func TestReportCarriesCacheStats(t *testing.T) {
	// Response tables are design-keyed and process-wide: any earlier test
	// using fig16's design leaves its entries warm, which would turn this
	// run's misses into hits. Start from a cold registry.
	metasurface.ResetResponseTables()
	before := metasurface.GlobalCacheStats()
	rep, err := Execute(context.Background(), Options{IDs: []string{"fig16"}, Concurrency: 2, ShardRows: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CacheHits == 0 || rep.CacheMisses == 0 {
		t.Fatalf("run-wide cache stats empty: %d/%d", rep.CacheHits, rep.CacheMisses)
	}
	if cs := metasurface.GlobalCacheStats().Sub(before); cs.Hits != rep.CacheHits || cs.Misses != rep.CacheMisses {
		t.Errorf("run totals %d/%d != global window %d/%d", rep.CacheHits, rep.CacheMisses, cs.Hits, cs.Misses)
	}
	var sb strings.Builder
	if err := rep.Render(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"cache:", "hit rate"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("render missing %q:\n%s", want, sb.String())
		}
	}

	// A disabled cache leaves all counters zero and the summary silent.
	metasurface.SetCaching(false)
	defer metasurface.SetCaching(true)
	rep, err = Execute(context.Background(), Options{IDs: []string{"fig16"}, Concurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CacheHits != 0 || rep.CacheMisses != 0 {
		t.Errorf("disabled cache still counted %d/%d", rep.CacheHits, rep.CacheMisses)
	}
	sb.Reset()
	if err := rep.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "cache:") {
		t.Errorf("render shows cache line for an uncached run:\n%s", sb.String())
	}
}

// TestBatchRowsRecordedInReport: the report and its rendering reflect the
// batch size used.
func TestBatchRowsRecordedInReport(t *testing.T) {
	rep, err := Execute(context.Background(),
		Options{IDs: []string{"fig16"}, Concurrency: 2, ShardRows: true, BatchRows: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.BatchRows != 4 {
		t.Errorf("BatchRows = %d, want 4", rep.BatchRows)
	}
	var sb strings.Builder
	if err := rep.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "×4-point batches") {
		t.Errorf("render missing batch annotation:\n%s", sb.String())
	}
}
