package experiments

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/llama-surface/llama/internal/store"
)

// resumeTestIDs are fast experiments with distinct shapes: a histogram
// sweep and a bias-rotation table.
var resumeTestIDs = []string{"fig2a", "tab1"}

// sameReplicated compares aggregates bit-for-bit (NaN-safe), ignoring
// wall time.
func sameReplicated(a, b *ReplicatedResult) bool {
	if a.ID != b.ID || a.Title != b.Title ||
		!reflect.DeepEqual(a.Columns, b.Columns) || !reflect.DeepEqual(a.Seeds, b.Seeds) ||
		len(a.Mean) != len(b.Mean) {
		return false
	}
	for ri := range a.Mean {
		if len(a.Mean[ri]) != len(b.Mean[ri]) {
			return false
		}
		for ci := range a.Mean[ri] {
			if math.Float64bits(a.Mean[ri][ci]) != math.Float64bits(b.Mean[ri][ci]) ||
				math.Float64bits(a.Stddev[ri][ci]) != math.Float64bits(b.Stddev[ri][ci]) {
				return false
			}
		}
	}
	return true
}

// seedRange returns seeds lo..hi inclusive.
func seedRange(lo, hi int64) []int64 {
	var out []int64
	for s := lo; s <= hi; s++ {
		out = append(out, s)
	}
	return out
}

// TestResumeBitIdentity is determinism invariant 6: a run with seeds
// {1..5} persisted to a store, followed by a resumed run with seeds
// {1..10}, must reuse the first five cells per experiment and produce
// Results and Replicated output bit-identical to a fresh {1..10} run —
// for workers {1, 8}, sharded and not. Run under -race in CI.
func TestResumeBitIdentity(t *testing.T) {
	ctx := context.Background()
	for _, workers := range []int{1, 8} {
		for _, shard := range []bool{false, true} {
			dir := t.TempDir()
			base := Options{IDs: resumeTestIDs, Concurrency: workers, ShardRows: shard}

			first := base
			first.Seeds = seedRange(1, 5)
			first.StoreDir = dir
			firstRep, err := Execute(ctx, first)
			if err != nil {
				t.Fatalf("workers %d shard %v: first run: %v", workers, shard, err)
			}
			if firstRep.PersistedCells != len(resumeTestIDs)*5 {
				t.Errorf("workers %d shard %v: persisted %d cells, want %d",
					workers, shard, firstRep.PersistedCells, len(resumeTestIDs)*5)
			}

			resumed := base
			resumed.Seeds = seedRange(1, 10)
			resumed.StoreDir = dir
			resumed.Resume = true
			resumedRep, err := Execute(ctx, resumed)
			if err != nil {
				t.Fatalf("workers %d shard %v: resumed run: %v", workers, shard, err)
			}
			if resumedRep.ReusedCells != len(resumeTestIDs)*5 || resumedRep.ComputedCells != len(resumeTestIDs)*5 {
				t.Errorf("workers %d shard %v: reused %d / computed %d cells, want %d / %d",
					workers, shard, resumedRep.ReusedCells, resumedRep.ComputedCells,
					len(resumeTestIDs)*5, len(resumeTestIDs)*5)
			}
			if len(resumedRep.StoreWarnings) != 0 {
				t.Errorf("workers %d shard %v: unexpected store warnings: %v",
					workers, shard, resumedRep.StoreWarnings)
			}

			fresh := base
			fresh.Seeds = seedRange(1, 10)
			freshRep, err := Execute(ctx, fresh)
			if err != nil {
				t.Fatalf("workers %d shard %v: fresh run: %v", workers, shard, err)
			}

			if len(resumedRep.Results) != len(freshRep.Results) {
				t.Fatalf("workers %d shard %v: %d resumed results, fresh %d",
					workers, shard, len(resumedRep.Results), len(freshRep.Results))
			}
			for i := range freshRep.Results {
				if !sameResult(resumedRep.Results[i], freshRep.Results[i]) {
					t.Errorf("workers %d shard %v: resumed result %q differs from fresh run",
						workers, shard, freshRep.Results[i].ID)
				}
			}
			if len(resumedRep.Replicated) != len(freshRep.Replicated) {
				t.Fatalf("workers %d shard %v: %d resumed aggregates, fresh %d",
					workers, shard, len(resumedRep.Replicated), len(freshRep.Replicated))
			}
			for i := range freshRep.Replicated {
				if !sameReplicated(resumedRep.Replicated[i], freshRep.Replicated[i]) {
					t.Errorf("workers %d shard %v: resumed aggregate %q differs from fresh run",
						workers, shard, freshRep.Replicated[i].ID)
				}
			}

			// A second resume over the full seed set recomputes nothing.
			again, err := Execute(ctx, resumed)
			if err != nil {
				t.Fatalf("workers %d shard %v: second resume: %v", workers, shard, err)
			}
			if again.ReusedCells != len(resumeTestIDs)*10 || again.ComputedCells != 0 {
				t.Errorf("workers %d shard %v: second resume reused %d / computed %d, want %d / 0",
					workers, shard, again.ReusedCells, again.ComputedCells, len(resumeTestIDs)*10)
			}
			for i := range freshRep.Replicated {
				if !sameReplicated(again.Replicated[i], freshRep.Replicated[i]) {
					t.Errorf("workers %d shard %v: fully reused aggregate %q differs from fresh run",
						workers, shard, freshRep.Replicated[i].ID)
				}
			}
		}
	}
}

// TestResumeRendersReuseCounts: the stderr summary reports reused and
// recomputed cell counts.
func TestResumeRendersReuseCounts(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	if _, err := Execute(ctx, Options{IDs: []string{"tab1"}, Seeds: seedRange(1, 2), StoreDir: dir}); err != nil {
		t.Fatal(err)
	}
	rep, err := Execute(ctx, Options{IDs: []string{"tab1"}, Seeds: seedRange(1, 5), StoreDir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := rep.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "store: reused 2 cell(s), recomputed 3, persisted 3") {
		t.Errorf("render missing store reuse summary:\n%s", sb.String())
	}
}

// TestResumeIgnoresLegacyManifest: stores written by older releases
// hold an index.jsonl manifest beside cells/. Nothing reads or writes it
// any more: such a store opens, a resume over it reuses every cell
// bit-identically, and the manifest's bytes are left as they were.
func TestResumeIgnoresLegacyManifest(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	opts := Options{IDs: resumeTestIDs, Seeds: seedRange(1, 2), Concurrency: 2, StoreDir: dir}
	first, err := Execute(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(dir, "index.jsonl")
	if _, err := os.Stat(manifest); !os.IsNotExist(err) {
		t.Fatalf("a run wrote a manifest: %v", err)
	}
	// A stale manifest, as an older release left it: it names a cell that
	// is gone and none of the cells that exist.
	legacy := []byte(`{"schema":1,"id":"fig99","seed":1,"file":"cells/fig99__seed1.json","rows":3}` + "\n")
	if err := os.WriteFile(manifest, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	opts.Resume = true
	again, err := Execute(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cells := len(resumeTestIDs) * 2; again.ReusedCells != cells || again.ComputedCells != 0 {
		t.Errorf("reused %d / computed %d cells, want %d / 0", again.ReusedCells, again.ComputedCells, cells)
	}
	for i := range first.Results {
		if !sameResult(again.Results[i], first.Results[i]) {
			t.Errorf("resumed result %q differs from the run that stored it", first.Results[i].ID)
		}
	}
	if got, err := os.ReadFile(manifest); err != nil || !bytes.Equal(got, legacy) {
		t.Errorf("legacy manifest changed: %q (err %v), want %q", got, err, legacy)
	}
}

// corruptStoredCell damages the record for (id, seed) in dir with the
// given mutator.
func corruptStoredCell(t *testing.T, dir, id string, seed int64, mutate func(data []byte) []byte) string {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := st.CellPath(id, seed)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, mutate(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestResumeRecomputesDamagedCells: truncated records, schema-version
// drift, and stored tables shaped unlike the current sweep each surface
// as a warning naming the experiment, seed and file — and the cell is
// recomputed and re-persisted, so the resumed output still matches a
// fresh run bit-for-bit.
func TestResumeRecomputesDamagedCells(t *testing.T) {
	ctx := context.Background()
	fresh, err := Execute(ctx, Options{IDs: []string{"tab1"}, Seeds: seedRange(1, 3)})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		mutate func(data []byte) []byte
		wants  []string
	}{
		{"truncated", func(d []byte) []byte { return d[:len(d)/3] }, []string{"corrupt"}},
		{"schema", func(d []byte) []byte {
			return []byte(strings.Replace(string(d), `"schema":1`, `"schema":42`, 1))
		}, []string{"schema version 42"}},
		{"shape", func(d []byte) []byte {
			return []byte(strings.Replace(string(d), `"Vy_V"`, `"volts"`, 1))
		}, []string{"stored columns", "sweep declares"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if _, err := Execute(ctx, Options{IDs: []string{"tab1"}, Seeds: seedRange(1, 3), StoreDir: dir}); err != nil {
				t.Fatal(err)
			}
			path := corruptStoredCell(t, dir, "tab1", 2, tc.mutate)

			rep, err := Execute(ctx, Options{IDs: []string{"tab1"}, Seeds: seedRange(1, 3), StoreDir: dir, Resume: true})
			if err != nil {
				t.Fatalf("resume over damaged store must not fail: %v", err)
			}
			if rep.ReusedCells != 2 || rep.ComputedCells != 1 {
				t.Errorf("reused %d / computed %d, want 2 / 1", rep.ReusedCells, rep.ComputedCells)
			}
			if len(rep.StoreWarnings) != 1 {
				t.Fatalf("warnings = %v, want exactly one", rep.StoreWarnings)
			}
			for _, want := range append([]string{"tab1", "seed 2", path}, tc.wants...) {
				if !strings.Contains(rep.StoreWarnings[0], want) {
					t.Errorf("warning %q does not name %q", rep.StoreWarnings[0], want)
				}
			}
			for i := range fresh.Results {
				if !sameResult(rep.Results[i], fresh.Results[i]) {
					t.Errorf("recomputed result %q differs from fresh run", fresh.Results[i].ID)
				}
			}
			for i := range fresh.Replicated {
				if !sameReplicated(rep.Replicated[i], fresh.Replicated[i]) {
					t.Errorf("recomputed aggregate %q differs from fresh run", fresh.Replicated[i].ID)
				}
			}

			// The damaged cell was re-persisted: a second resume reuses
			// everything cleanly.
			again, err := Execute(ctx, Options{IDs: []string{"tab1"}, Seeds: seedRange(1, 3), StoreDir: dir, Resume: true})
			if err != nil {
				t.Fatal(err)
			}
			if again.ReusedCells != 3 || len(again.StoreWarnings) != 0 {
				t.Errorf("after repair: reused %d, warnings %v", again.ReusedCells, again.StoreWarnings)
			}
		})
	}
}

// TestResumeRequiresStoreDir: Options.Resume without a store is a
// configuration error, caught before any compute.
func TestResumeRequiresStoreDir(t *testing.T) {
	_, err := Execute(context.Background(), Options{IDs: []string{"tab1"}, Resume: true})
	if err == nil || !strings.Contains(err.Error(), "StoreDir") {
		t.Fatalf("err = %v, want StoreDir requirement", err)
	}
}

// TestStorePersistsCompletedCellsOnFailure: when one experiment fails,
// sibling experiments' completed cells are still written to the store,
// so a later resume recomputes only what actually broke. IDs sort
// zz-pfail-aa before zz-pfail-bb, so on one worker the completing sweep
// finishes before the failing one runs — deterministic.
func TestStorePersistsCompletedCellsOnFailure(t *testing.T) {
	tempSweep(t, countingSweep("zz-pfail-aa", 3))
	boom := countingSweep("zz-pfail-bb", 3)
	boom.Finish = func(res *Result, seed int64) error {
		return errors.New("boom")
	}
	tempSweep(t, boom)

	dir := t.TempDir()
	rep, err := Execute(context.Background(),
		Options{IDs: []string{"zz-pfail-aa", "zz-pfail-bb"}, Concurrency: 1, StoreDir: dir})
	if err == nil {
		t.Fatal("failing experiment did not report")
	}
	if rep.PersistedCells != 1 {
		t.Errorf("persisted %d cells, want 1 (the completed sibling)", rep.PersistedCells)
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get("zz-pfail-aa", 1); err != nil {
		t.Fatalf("completed sibling not persisted: %v", err)
	}
	if _, err := st.Get("zz-pfail-bb", 1); !store.IsNotFound(err) {
		t.Fatalf("failed cell must not be stored: %v", err)
	}
}
