package lint

// Golden-diagnostic tests: each check gets one clean fixture package
// (zero findings) and one violating fixture package whose findings are
// asserted exactly, string for string — position, check name and
// message. The suppression directive gets the same treatment: a
// reasoned allow silences exactly its finding, a reason-less or
// unknown-check allow is itself a finding and suppresses nothing.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixtureBase is the module-relative home of the fixture packages.
const fixtureBase = "internal/lint/testdata/src"

// loadFixtures loads the named fixture dirs (relative to fixtureBase)
// with a config produced by scope, which receives the fixtures'
// module-relative paths in the same order.
func loadFixtures(t *testing.T, scope func(cfg *Config, rels []string), names ...string) *Suite {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	var abs []string
	var rels []string
	for _, n := range names {
		rel := fixtureBase + "/" + n
		rels = append(rels, rel)
		abs = append(abs, filepath.Join(root, filepath.FromSlash(rel)))
	}
	cfg := Config{SweepType: "Sweep", ClockPkgs: []string{"internal/simclock"}}
	if scope != nil {
		scope(&cfg, rels)
	}
	s, err := LoadDirs(root, abs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// runFixture renders the surviving findings with the fixture base
// stripped, so expectations read as "purity/bad/bad.go:12: ...".
func runFixture(t *testing.T, scope func(cfg *Config, rels []string), names ...string) []string {
	t.Helper()
	var got []string
	for _, f := range loadFixtures(t, scope, names...).Run() {
		got = append(got, strings.TrimPrefix(f.String(), fixtureBase+"/"))
	}
	return got
}

// expectFindings asserts the exact diagnostic lines.
func expectFindings(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d finding(s), want %d:\n got: %s\nwant: %s",
			len(got), len(want), strings.Join(got, "\n      "), strings.Join(want, "\n      "))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("finding %d:\n got: %s\nwant: %s", i, got[i], want[i])
		}
	}
}

func TestPurityFixtures(t *testing.T) {
	scope := func(cfg *Config, rels []string) { cfg.PurePkgs = rels }
	expectFindings(t, runFixture(t, scope, "purity/clean"), nil)
	expectFindings(t, runFixture(t, scope, "purity/bad"), []string{
		"purity/bad/bad.go:12: [purity] calls time.Now; pure kernels must not read the wall clock (inject a simclock)",
		"purity/bad/bad.go:15: [purity] draws from the global math/rand source (rand.Float64); derive a seeded *rand.Rand from the experiment seed",
		"purity/bad/bad.go:18: [purity] reads the environment (os.Getenv); pure kernels take configuration as arguments",
		"purity/bad/bad.go:24: [purity] iterates a map in a deterministic-output path; collect the keys into a slice and sort it",
	})
}

func TestSweepPurityFixture(t *testing.T) {
	scope := func(cfg *Config, rels []string) { cfg.SweepPkgs = rels }
	expectFindings(t, runFixture(t, scope, "purity/sweep"), []string{
		"purity/sweep/sweep.go:28: [purity] calls time.Now; pure kernels must not read the wall clock (inject a simclock)",
		"purity/sweep/sweep.go:35: [purity] calls time.Now; pure kernels must not read the wall clock (inject a simclock)",
	})
}

func TestFloatEncFixtures(t *testing.T) {
	scope := func(cfg *Config, rels []string) { cfg.PersistScopes = rels }
	expectFindings(t, runFixture(t, scope, "floatenc/clean"), nil)
	expectFindings(t, runFixture(t, scope, "floatenc/bad"), []string{
		"floatenc/bad/bad.go:12: [floatenc] strconv.FormatFloat with a non-canonical configuration; persistence paths must use ('g', -1, 64) so every float64 round-trips bit-exactly",
		"floatenc/bad/bad.go:15: [floatenc] formats a float through fmt.Sprintf; persistence paths must encode floats with the blessed strconv 'g'/-1/64 helpers",
		"floatenc/bad/bad.go:18: [floatenc] marshals a float as a JSON number (json.Marshal); JSON numbers reject NaN/±Inf — encode floats as strconv 'g'/-1/64 strings",
	})
}

func TestContextFixtures(t *testing.T) {
	expectFindings(t, runFixture(t, nil, "ctx/clean"), nil)
	expectFindings(t, runFixture(t, nil, "ctx/bad"), []string{
		"ctx/bad/bad.go:8: [context] context.Context is parameter 1 of Run; blocking APIs take ctx first",
		"ctx/bad/bad.go:18: [context] manufactures context.Background; library code must derive from a caller-supplied context",
	})
}

func TestMutexIOFixtures(t *testing.T) {
	expectFindings(t, runFixture(t, nil, "mutex/clean"), nil)
	expectFindings(t, runFixture(t, nil, "mutex/bad"), []string{
		"mutex/bad/bad.go:23: [mutexio] sends on a channel while b.mu is held",
		"mutex/bad/bad.go:29: [mutexio] receives from a channel while b.mu is held",
		"mutex/bad/bad.go:37: [mutexio] calls os.WriteFile (I/O) while b.mu is held",
	})
}

func TestDocLintFixtures(t *testing.T) {
	scope := func(cfg *Config, rels []string) { cfg.DocPkgs = rels }
	expectFindings(t, runFixture(t, scope, "doclint/clean"), nil)
	expectFindings(t, runFixture(t, scope, "doclint/bad"), []string{
		"doclint/bad/bad.go:1: [doclint] package doclintbad has no package doc comment",
		"doclint/bad/bad.go:3: [doclint] exported value Answer has no doc comment",
		"doclint/bad/bad.go:5: [doclint] exported type Widget has no doc comment",
		"doclint/bad/bad.go:7: [doclint] exported function Greet has no doc comment",
	})
}

func TestUnusedFixtures(t *testing.T) {
	// lib's importers are lib and user, so loading both judges lib:
	// clean.go's cross-package use, interface method and reasoned allow
	// pass, and bad.go's three orphans are findings.
	expectFindings(t, runFixture(t, nil, "unused/internal/lib", "unused/user"), []string{
		"unused/internal/lib/bad.go:4: [unused] exported function Orphan has no non-test reference; delete it",
		"unused/internal/lib/bad.go:10: [unused] exported method Widget.Spin has no non-test reference; delete it",
		"unused/internal/lib/bad.go:13: [unused] exported const Limit has no non-test reference; delete it",
	})
	// A load that leaves out an importer cannot know what it uses, so
	// it reports nothing.
	expectFindings(t, runFixture(t, nil, "unused/internal/lib"), nil)
}

func TestAllowDirective(t *testing.T) {
	scope := func(cfg *Config, rels []string) { cfg.PurePkgs = rels }
	// A reasoned allow (line above or same line) suppresses exactly its
	// finding.
	expectFindings(t, runFixture(t, scope, "allow/clean"), nil)
	// A reason-less allow is rejected and suppresses nothing; so is an
	// allow naming an unknown check.
	expectFindings(t, runFixture(t, scope, "allow/bad"), []string{
		"allow/bad/bad.go:10: [allow] lint:allow purity has no reason; the reason is mandatory",
		"allow/bad/bad.go:11: [purity] calls time.Now; pure kernels must not read the wall clock (inject a simclock)",
		"allow/bad/bad.go:16: [allow] lint:allow names unknown check \"speed\"",
		"allow/bad/bad.go:17: [purity] calls time.Now; pure kernels must not read the wall clock (inject a simclock)",
	})
}

// TestDefaultConfigScopesExist pins the default scoping to directories
// that actually exist, so a package rename cannot silently unscope a
// check.
func TestDefaultConfigScopesExist(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	var paths []string
	paths = append(paths, cfg.PurePkgs...)
	paths = append(paths, cfg.SweepPkgs...)
	paths = append(paths, cfg.ClockPkgs...)
	for _, scope := range cfg.PersistScopes {
		paths = append(paths, scope)
	}
	for _, p := range paths {
		if strings.HasSuffix(p, "/...") {
			p = strings.TrimSuffix(p, "/...")
		}
		if _, err := os.Stat(filepath.Join(root, filepath.FromSlash(p))); err != nil {
			t.Errorf("config names %s, which does not exist: %v", p, err)
		}
	}
}
