package llama

// The committed perf trajectory: every BENCH_<n>.json at the repo root
// holds the final JSON lines of the benchmark command for a change and
// its parent. This test keeps those files well formed against
// BENCHMARK.json. It checks shape only and gates no timing: numbers
// from shared hosts are too noisy to gate.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
)

// benchRun is one benchmark invocation recorded in a BENCH file.
type benchRun struct {
	Side     string `json:"side"`
	Workload string `json:"workload"`
	Seed     int    `json:"seed"`
	Result   struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value *float64 `json:"value"`
		} `json:"metrics"`
	} `json:"result"`
}

// TestBenchFiles: each BENCH_<n>.json parses and names its PR as n, a
// 40-hex parent commit, its host and its command; every run is a
// parent or change run of a workload BENCHMARK.json declares, correct,
// with a value for every end-to-end metric; and both sides cover the
// registry and fleet-sharded workloads at seeds 1–3.
func TestBenchFiles(t *testing.T) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name string `json:"name"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	workloads := make(map[string]bool)
	for _, w := range decl.Workloads {
		workloads[w.Name] = true
	}

	files, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no BENCH_*.json files")
	}
	name := regexp.MustCompile(`^BENCH_([0-9]+)\.json$`)
	commit := regexp.MustCompile(`^[0-9a-f]{40}$`)
	for _, file := range files {
		t.Run(file, func(t *testing.T) {
			m := name.FindStringSubmatch(file)
			if m == nil {
				t.Fatalf("file name is not BENCH_<pr>.json")
			}
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			var bench struct {
				PR      int        `json:"pr"`
				Parent  string     `json:"parent"`
				Host    string     `json:"host"`
				Command string     `json:"command"`
				Runs    []benchRun `json:"runs"`
			}
			if err := json.Unmarshal(data, &bench); err != nil {
				t.Fatalf("parse: %v", err)
			}
			if want, _ := strconv.Atoi(m[1]); bench.PR != want {
				t.Errorf("pr = %d, want %d from the file name", bench.PR, want)
			}
			if !commit.MatchString(bench.Parent) {
				t.Errorf("parent %q is not a 40-hex commit", bench.Parent)
			}
			if bench.Host == "" || bench.Command == "" {
				t.Errorf("host %q and command %q must both be set", bench.Host, bench.Command)
			}
			covered := make(map[string]bool)
			for i, r := range bench.Runs {
				if r.Side != "parent" && r.Side != "change" {
					t.Errorf("run %d: side %q, want parent or change", i, r.Side)
				}
				if !workloads[r.Workload] {
					t.Errorf("run %d: workload %q is not declared in BENCHMARK.json", i, r.Workload)
				}
				if !r.Result.Correct {
					t.Errorf("run %d (%s %s seed %d): result not correct", i, r.Side, r.Workload, r.Seed)
				}
				for _, e := range decl.EndToEnd {
					if r.Result.Metrics[e.Name].Value == nil {
						t.Errorf("run %d (%s %s seed %d): no value for %s", i, r.Side, r.Workload, r.Seed, e.Name)
					}
				}
				covered[r.Side+"/"+r.Workload+"/"+strconv.Itoa(r.Seed)] = true
			}
			for _, side := range []string{"parent", "change"} {
				for _, w := range []string{"registry", "fleet-sharded"} {
					for seed := 1; seed <= 3; seed++ {
						if key := side + "/" + w + "/" + strconv.Itoa(seed); !covered[key] {
							t.Errorf("no %s run of %s at seed %d", side, w, seed)
						}
					}
				}
			}
		})
	}
}
