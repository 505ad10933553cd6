// Package lint is the static gate over the repository's determinism
// contracts: a go/ast + go/types analyzer suite (standard library only)
// that parses and type-checks every package once, runs the registered
// checks, and reports findings as "file:line: [check] message". Where
// the test suite enforces the ARCHITECTURE.md invariants dynamically —
// on the paths a seed happens to exercise — the analyzers enforce them
// at analysis time, on every build, over all code including code no
// test reaches: a time.Now() in a pure kernel or a %v float in a store
// encoder is a finding before it is ever a flaky bit-mismatch.
//
// The suite ships six checks (see Checks):
//
//   - purity: pure-kernel packages and sweep point-functions must not
//     read the wall clock, the global math/rand source, or the
//     environment, and must not iterate a map into ordered output.
//   - floatenc: persistence paths format floats only through the
//     blessed lossless strconv 'g'/-1/64 form, never fmt verbs.
//   - context: context.Context parameters come first, and library
//     code never manufactures context.Background()/TODO().
//   - mutexio: no channel operation or direct I/O call while a
//     sync.Mutex/RWMutex is provably held in the same function body.
//   - doclint: exported identifiers are documented and internal
//     packages carry package comments (the old doclint_test.go gate).
//   - unused: an exported identifier under an internal/ tree that no
//     loaded non-test code refers to is a finding (see unused.go).
//
// A finding can be suppressed in place with a directive comment on the
// offending line or the line directly above it:
//
//	//lint:allow <check> <reason>
//
// The reason is mandatory: an allow without one is itself a finding,
// as is an allow naming an unknown check — so a suppression always
// documents why the exception is safe.
//
// The suite runs two ways: `go run ./cmd/llama-lint ./...` (exit 1 on
// findings, -json for machine-readable output) and the root
// lint_test.go, which makes plain `go test ./...` a lint gate too.
package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Finding is one diagnostic: a position, the check that produced it,
// and a human-readable message. Findings render as
// "file:line: [check] message" with the file path relative to the
// module root.
type Finding struct {
	// File is the module-root-relative, slash-separated path of the
	// offending file; Line its 1-based line.
	File string
	Line int
	// Check names the check that produced the finding (or "allow" for a
	// misused suppression directive).
	Check string
	// Message states the violation.
	Message string
}

// String renders the finding in the canonical file:line: [check] form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.File, f.Line, f.Check, f.Message)
}

// Package is one parsed and type-checked package the checks run over.
// Only non-test files are loaded: the _test.go files are the dynamic
// half of the contract and are free to break purity on purpose.
type Package struct {
	// Name is the package name; Rel the module-root-relative directory
	// ("." for the root package), slash-separated.
	Name, Rel string
	// Files holds the parsed non-test files, sorted by file name.
	Files []*ast.File
	// TypesPkg and Info carry the go/types results for Files.
	TypesPkg *types.Package
	// Info is the type-checker's expression/object tables.
	Info *types.Info
}

// Config scopes the checks to the packages whose contracts they
// guard. All patterns are module-root-relative directory paths; a
// trailing "/..." matches the whole subtree, and entries ending in
// ".go" (where accepted) scope a single file.
type Config struct {
	// PurePkgs are the pure-kernel packages: everything in them must be
	// a deterministic function of its arguments.
	PurePkgs []string
	// SweepPkgs hold Sweep declarations whose Point/Finish function
	// bodies must be pure even though the surrounding package is not.
	SweepPkgs []string
	// SweepType is the struct type name whose Point/Finish fields are
	// sweep kernels (default "Sweep").
	SweepType string
	// PersistScopes are the persistence paths (package dirs or single
	// .go files) where floatenc applies.
	PersistScopes []string
	// DocPkgs need a package doc comment plus documented exports;
	// DocRootPkgs need documented exports only.
	DocPkgs []string
	// DocRootPkgs lists root-style packages for doclint (exported docs
	// required, package comment not).
	DocRootPkgs []string
	// ClockPkgs are the blessed deterministic time sources: calls into
	// them are never impure (default internal/simclock).
	ClockPkgs []string
}

// DefaultConfig returns the repository's real scoping: the pure
// physics kernels, the sweep package, the persistence paths, and the
// doclint coverage the old doclint_test.go enforced.
func DefaultConfig() Config {
	return Config{
		PurePkgs: []string{
			"internal/metasurface",
			"internal/twoport",
			"internal/jones",
			"internal/mat2",
			"internal/channel",
			"internal/antenna",
			"internal/signal",
		},
		SweepPkgs: []string{"internal/experiments"},
		SweepType: "Sweep",
		PersistScopes: []string{
			"internal/store",
			"internal/fleet",
			"internal/experiments/persist.go",
			"internal/experiments/tables.go",
			"internal/metasurface/table.go",
		},
		DocPkgs:     []string{"internal/..."},
		DocRootPkgs: []string{"."},
		ClockPkgs:   []string{"internal/simclock"},
	}
}

// relToSlash returns path relative to root in slash form (the path
// unchanged when it does not sit under root).
func relToSlash(root, path string) string {
	rel, err := filepath.Rel(root, path)
	if err != nil {
		return filepath.ToSlash(path)
	}
	return filepath.ToSlash(rel)
}

// matchRel reports whether the module-relative dir rel matches
// pattern: exact, or subtree when the pattern ends in "/...".
func matchRel(rel, pattern string) bool {
	if p, ok := strings.CutSuffix(pattern, "/..."); ok {
		return rel == p || strings.HasPrefix(rel, p+"/")
	}
	return rel == pattern
}

// matchAny reports whether rel matches any of the patterns.
func matchAny(rel string, patterns []string) bool {
	for _, p := range patterns {
		if matchRel(rel, p) {
			return true
		}
	}
	return false
}

// Suite is a loaded set of packages ready to be checked: one shared
// FileSet and type-checker pass, reused by every check.
type Suite struct {
	// Root is the absolute module root findings are reported relative
	// to.
	Root string
	// Fset is the shared position table for every loaded file.
	Fset *token.FileSet
	// Packages are the loaded packages, sorted by Rel.
	Packages []*Package
	// Config scopes the checks.
	Config Config

	unusedOnce sync.Once
	unused     *unusedIndex
}

// modulePath extracts the module path from root/go.mod.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module line in %s/go.mod", root)
}

// FindModuleRoot walks up from dir to the nearest directory containing
// a go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// GoDirs returns every directory under root holding non-test Go files,
// skipping testdata, hidden and underscore directories — the package
// set a "dir/..." pattern denotes.
func GoDirs(root string) ([]string, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	var dirs []string
	seen := map[string]bool{}
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			if dir := filepath.Dir(path); !seen[dir] {
				seen[dir] = true
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

// LoadDirs parses and type-checks the non-test Go files of each
// directory (which must live under root, the module root). Standard
// library and module-internal imports are resolved from source, so the
// loader needs no compiled export data.
func LoadDirs(root string, dirs []string, cfg Config) (*Suite, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	mod, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	s := &Suite{Root: root, Fset: fset, Config: cfg}
	for _, dir := range dirs {
		if !filepath.IsAbs(dir) {
			dir = filepath.Join(root, dir)
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		rel = filepath.ToSlash(rel)
		pkg, err := loadDir(fset, imp, mod, dir, rel)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			s.Packages = append(s.Packages, pkg)
		}
	}
	sort.Slice(s.Packages, func(i, j int) bool { return s.Packages[i].Rel < s.Packages[j].Rel })
	return s, nil
}

// loadDir parses and type-checks one directory's non-test files.
func loadDir(fset *token.FileSet, imp types.Importer, mod, dir, rel string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		return nil, nil
	}
	sort.Strings(names)
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parse: %w", err)
		}
		files = append(files, f)
	}
	for _, f := range files[1:] {
		if f.Name.Name != files[0].Name.Name {
			return nil, fmt.Errorf("lint: %s: mixed packages %s and %s", dir, files[0].Name.Name, f.Name.Name)
		}
	}
	path := mod
	if rel != "." {
		path = mod + "/" + rel
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	var typeErrs []string
	conf := types.Config{
		Importer: imp,
		Error: func(err error) {
			typeErrs = append(typeErrs, err.Error())
		},
	}
	tpkg, _ := conf.Check(path, fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("lint: type-checking %s:\n  %s", path, strings.Join(typeErrs, "\n  "))
	}
	return &Package{
		Name:     files[0].Name.Name,
		Rel:      rel,
		Files:    files,
		TypesPkg: tpkg,
		Info:     info,
	}, nil
}

// Run executes the given checks (all registered checks when none are
// named) over every loaded package and returns the surviving findings
// sorted by file, line and check: suppression directives with a reason
// remove their findings, directives without one (or naming an unknown
// check) are findings themselves.
func (s *Suite) Run(checks ...*Check) []Finding {
	if len(checks) == 0 {
		checks = Checks()
	}
	known := map[string]bool{}
	for _, c := range Checks() {
		known[c.Name] = true
	}
	var raw []Finding
	for _, p := range s.Packages {
		for _, c := range checks {
			report := func(pos token.Pos, format string, args ...any) {
				position := s.Fset.Position(pos)
				file, err := filepath.Rel(s.Root, position.Filename)
				if err != nil {
					file = position.Filename
				}
				raw = append(raw, Finding{
					File:    filepath.ToSlash(file),
					Line:    position.Line,
					Check:   c.Name,
					Message: fmt.Sprintf(format, args...),
				})
			}
			c.Run(s, p, report)
		}
	}
	allows, findings := s.directives(known)
	for _, f := range raw {
		if allowed(allows, f) {
			continue
		}
		findings = append(findings, f)
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
	return findings
}

// allow is one parsed lint:allow directive.
type allow struct {
	file   string
	line   int
	check  string
	reason string
}

// directives collects every lint:allow comment across the suite,
// returning the usable suppressions plus the findings for malformed
// ones (missing reason, unknown check).
func (s *Suite) directives(known map[string]bool) ([]allow, []Finding) {
	var allows []allow
	var bad []Finding
	for _, p := range s.Packages {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text, ok := strings.CutPrefix(c.Text, "//lint:allow")
					if !ok {
						continue
					}
					position := s.Fset.Position(c.Pos())
					file, err := filepath.Rel(s.Root, position.Filename)
					if err != nil {
						file = position.Filename
					}
					file = filepath.ToSlash(file)
					fields := strings.Fields(text)
					switch {
					case len(fields) == 0:
						bad = append(bad, Finding{File: file, Line: position.Line, Check: "allow",
							Message: "lint:allow names no check; write //lint:allow <check> <reason>"})
					case !known[fields[0]]:
						bad = append(bad, Finding{File: file, Line: position.Line, Check: "allow",
							Message: fmt.Sprintf("lint:allow names unknown check %q", fields[0])})
					case len(fields) == 1:
						bad = append(bad, Finding{File: file, Line: position.Line, Check: "allow",
							Message: fmt.Sprintf("lint:allow %s has no reason; the reason is mandatory", fields[0])})
					default:
						allows = append(allows, allow{
							file:   file,
							line:   position.Line,
							check:  fields[0],
							reason: strings.Join(fields[1:], " "),
						})
					}
				}
			}
		}
	}
	return allows, bad
}

// allowed reports whether a directive on the finding's line or the
// line directly above suppresses it.
func allowed(allows []allow, f Finding) bool {
	for _, a := range allows {
		if a.file == f.File && a.check == f.Check && (a.line == f.Line || a.line == f.Line-1) {
			return true
		}
	}
	return false
}
