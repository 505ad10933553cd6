package experiments

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"github.com/llama-surface/llama/internal/metasurface"
)

// Pinned output digests: the science frozen across commits. Every other
// determinism check compares modes of one build (serial ≡ sharded ≡
// batched); this one compares the build with the commit that wrote
// testdata/digests.json, so a change meant to be bit-identical — a
// faster calibration, a hoisted kernel term — proves it cell by cell.
//
// Regenerate after an intended change to the numbers with
//
//	go test ./internal/experiments -run TestOutputDigests -update

var updateDigests = flag.Bool("update", false, "rewrite testdata/digests.json from this build's output")

// digestSeeds are the seeds every cell is pinned at.
var digestSeeds = []int64{1, 7, 42}

const digestPath = "testdata/digests.json"

// digestFile is the committed pin. GOARCH records where it was made:
// another architecture may fuse multiply-adds differently, so its
// last-bit differences are not regressions.
type digestFile struct {
	GOARCH  string            `json:"goarch"`
	Seeds   []int64           `json:"seeds"`
	Digests map[string]string `json:"digests"`
}

// cellDigest is the SHA-256 of a cell's CSV followed by its notes, one
// per line.
func cellDigest(res *Result) (string, error) {
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		return "", err
	}
	for _, n := range res.Notes {
		buf.WriteString(n)
		buf.WriteByte('\n')
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// outputDigests runs every registered experiment on the serial path at
// each seed and digests each cell, keyed "<id>/<seed>".
func outputDigests(t *testing.T, seeds []int64) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, seed := range seeds {
		for _, id := range IDs() {
			res, err := Run(context.Background(), id, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", id, seed, err)
			}
			d, err := cellDigest(res)
			if err != nil {
				t.Fatalf("%s seed %d: %v", id, seed, err)
			}
			out[fmt.Sprintf("%s/%d", id, seed)] = d
		}
	}
	return out
}

// TestOutputDigests recomputes every cell at the pinned seeds and names
// each one whose CSV or notes moved since testdata/digests.json was
// written, plus any cell added to or removed from the registry.
func TestOutputDigests(t *testing.T) {
	if *updateDigests {
		file := digestFile{GOARCH: runtime.GOARCH, Seeds: digestSeeds, Digests: outputDigests(t, digestSeeds)}
		data, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(digestPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(file.Digests), digestPath)
		return
	}
	data, err := os.ReadFile(digestPath)
	if err != nil {
		t.Fatal(err)
	}
	var want digestFile
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", digestPath, err)
	}
	if want.GOARCH != runtime.GOARCH {
		t.Skipf("digests were made on %s; this is %s", want.GOARCH, runtime.GOARCH)
	}
	got := outputDigests(t, want.Seeds)
	keys := make([]string, 0, len(got)+len(want.Digests))
	for k := range got {
		keys = append(keys, k)
	}
	for k := range want.Digests {
		if _, ok := got[k]; !ok {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	for _, k := range keys {
		g, ok := got[k]
		w, pinned := want.Digests[k]
		switch {
		case !pinned:
			t.Errorf("%s: not pinned (new experiment? rerun with -update)", k)
		case !ok:
			t.Errorf("%s: pinned but no longer registered", k)
		case g != w:
			t.Errorf("%s: output moved: digest %s, pinned %s", k, g[:12], w[:12])
		}
	}
	if !t.Failed() {
		t.Logf("%d cells match their pinned digests", len(keys))
	}
}

// TestRegistryMisses pins the physics work of one registry pass: the
// response-table misses, each one distinct evaluation, that every
// experiment at seed 1 makes from empty tables. The digests pin what a
// run computes; this pins how much it computes, so a change that
// repeats or skips evaluations shows here even when no byte moves. Hit
// counts are left free: they count re-reads, which a change may add or
// remove without changing the work. A sharded pass counts fewer misses
// because its report's cache window closes before sharded cells run
// Finish.
func TestRegistryMisses(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("miss counts were pinned on amd64; this is %s", runtime.GOARCH)
	}
	for _, tc := range []struct {
		name      string
		shardRows bool
		want      uint64
	}{
		{"sharded", true, 1711},
		{"unsharded", false, 1852},
	} {
		t.Run(tc.name, func(t *testing.T) {
			metasurface.ResetResponseTables()
			rep, err := Execute(context.Background(), Options{Seeds: []int64{1}, ShardRows: tc.shardRows})
			if err != nil {
				t.Fatal(err)
			}
			if rep.CacheMisses != tc.want {
				t.Errorf("%d misses, pinned %d (hits %d)", rep.CacheMisses, tc.want, rep.CacheHits)
			}
		})
	}
}
