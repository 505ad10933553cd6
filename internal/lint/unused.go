package lint

// The unused check: an exported identifier under an internal/ tree is
// API only its own module can call, so an export no non-test code
// refers to is dead weight — compiled, documented and tested, yet
// reached by no figure, command or service. Rules:
//
//   - functions, methods, types, vars and consts declared at package
//     level in a package whose import path has an "internal" element
//     are checked; struct fields and interface methods are not;
//   - a use is any Info.Uses or Selections entry in a loaded non-test
//     file outside the identifier's own declaration (a type's own
//     methods do not keep it alive). Each package is type-checked
//     separately, so uses are keyed by package path and name, never by
//     object identity;
//   - a use inside the declaration of a reported identifier does not
//     count: every judged export starts dead and comes alive when a use
//     sits outside the dead declarations, to a fixed point. Exports
//     that only dead code reaches (a chain or a cycle) are reported in
//     one run, and an export under //lint:allow unused keeps what it
//     uses alive;
//   - a method whose name and signature match a method of some
//     interface type in the suite counts as used (String, Error, the
//     heap.Interface methods): it is called through that interface;
//   - a package is judged only when the suite loaded every directory
//     Go's internal-visibility rule lets import it, that is every
//     package under the parent of its last "internal" element. A
//     partial load (llama-lint ./internal/x) therefore stays silent
//     instead of flagging every export.

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"strings"
)

// Unused is the dead-export check.
var Unused = &Check{
	Name: "unused",
	Desc: "exported identifiers under internal/ are referenced by some non-test code",
	Run:  runUnused,
}

// unusedIndex is the suite-wide liveness table the check builds once.
type unusedIndex struct {
	// dead holds the keys (see objKey) of every judged export that no
	// live code refers to: the findings.
	dead map[string]bool
	// ifaceMethods holds name+signature keys of every interface method
	// type in the suite.
	ifaceMethods map[string]bool
	// complete caches, per internal-visibility scope, whether the suite
	// loaded every package in it.
	complete map[string]bool
}

// span is one declaration's source extent.
type span struct{ pos, end token.Pos }

// ref is one use of a judged export: its key, and the judged exports
// whose declarations hold the use.
type ref struct {
	key     string
	holders []string
}

// runUnused reports the dead exports of one package.
func runUnused(s *Suite, p *Package, report Reporter) {
	idx := s.unusedIndex()
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				fn, _ := p.Info.Defs[d.Name].(*types.Func)
				if fn == nil || !idx.dead[objKey(fn)] {
					continue
				}
				if d.Recv != nil {
					report(d.Name.Pos(), "exported method %s.%s has no non-test reference; delete it",
						recvName(fn), fn.Name())
					continue
				}
				report(d.Name.Pos(), "exported function %s has no non-test reference; delete it", fn.Name())
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					for _, name := range specNames(spec) {
						if obj := p.Info.Defs[name]; obj != nil && idx.dead[objKey(obj)] {
							report(name.Pos(), "exported %s %s has no non-test reference; delete it", d.Tok, name.Name)
						}
					}
				}
			}
		}
	}
}

// specNames returns the identifiers a type or value spec declares.
func specNames(spec ast.Spec) []*ast.Ident {
	switch sp := spec.(type) {
	case *ast.TypeSpec:
		return []*ast.Ident{sp.Name}
	case *ast.ValueSpec:
		return sp.Names
	}
	return nil
}

// visibilityScope returns the module-relative directory whose subtree
// may import the package at rel: the parent of its last "internal"
// element ("." for the module root). ok is false outside internal/.
func visibilityScope(rel string) (scope string, ok bool) {
	elems := strings.Split(rel, "/")
	for i := len(elems) - 1; i >= 0; i-- {
		if elems[i] == "internal" {
			if i == 0 {
				return ".", true
			}
			return strings.Join(elems[:i], "/"), true
		}
	}
	return "", false
}

// unusedIndex builds (once) the suite's liveness table.
func (s *Suite) unusedIndex() *unusedIndex {
	s.unusedOnce.Do(func() { s.unused = buildUnusedIndex(s) })
	return s.unused
}

// buildUnusedIndex walks every loaded package's interface types,
// declarations, uses and selections.
func buildUnusedIndex(s *Suite) *unusedIndex {
	idx := &unusedIndex{dead: map[string]bool{}, ifaceMethods: map[string]bool{}, complete: map[string]bool{}}
	seen := map[*types.Package]bool{}
	var addScope func(pkg *types.Package)
	addScope = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				idx.addInterface(tn.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			addScope(imp)
		}
	}
	idx.addInterface(types.Universe.Lookup("error").Type())
	idx.addInterface(unwrapper())
	for _, p := range s.Packages {
		for _, tv := range p.Info.Types {
			idx.addInterface(tv.Type)
		}
		addScope(p.TypesPkg)
	}
	// The object's own declaration does not keep it alive: a type's
	// receivers and method bodies name it, a recursive function calls
	// itself.
	own := map[string][]span{}
	allows, _ := s.directives(map[string]bool{"unused": true})
	for _, p := range s.Packages {
		scope, ok := visibilityScope(p.Rel)
		judged := ok && idx.completeScope(s, scope)
		declare := func(obj types.Object, sp span) {
			k := objKey(obj)
			own[k] = append(own[k], sp)
			if !judged || !obj.Exported() {
				return
			}
			if fn, ok := obj.(*types.Func); ok && recvNamed(fn) != nil && idx.ifaceMethods[methodSig(fn)] {
				return
			}
			at := s.Fset.Position(obj.Pos())
			if !allowed(allows, Finding{File: relToSlash(s.Root, at.Filename), Line: at.Line, Check: "unused"}) {
				idx.dead[k] = true
			}
		}
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					sp := span{d.Pos(), d.End()}
					if fn, ok := p.Info.Defs[d.Name].(*types.Func); ok {
						declare(fn, sp)
						if named := recvNamed(fn); named != nil {
							k := objKey(named.Obj())
							own[k] = append(own[k], sp)
						}
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						for _, name := range specNames(spec) {
							if obj := p.Info.Defs[name]; obj != nil {
								declare(obj, span{spec.Pos(), spec.End()})
							}
						}
					}
				}
			}
		}
	}
	// Every judged export starts dead; record each use of one with the
	// judged exports whose declarations hold it.
	var refs []ref
	use := func(obj types.Object, pos token.Pos) {
		holds := func(sp span) bool { return sp.pos <= pos && pos < sp.end }
		k := objKey(obj)
		if !idx.dead[k] || slices.ContainsFunc(own[k], holds) {
			return
		}
		r := ref{key: k}
		for h := range idx.dead {
			if slices.ContainsFunc(own[h], holds) {
				r.holders = append(r.holders, h)
			}
		}
		refs = append(refs, r)
	}
	for _, p := range s.Packages {
		for id, obj := range p.Info.Uses {
			use(obj, id.Pos())
		}
		for sel, selection := range p.Info.Selections {
			use(selection.Obj(), sel.Sel.Pos())
		}
	}
	// An export comes alive when one of its uses has no dead holder;
	// repeat until nothing changes.
	for changed := true; changed; {
		changed = false
		for _, r := range refs {
			if idx.dead[r.key] && !slices.ContainsFunc(r.holders, func(h string) bool { return idx.dead[h] }) {
				delete(idx.dead, r.key)
				changed = true
			}
		}
	}
	return idx
}

// addInterface records the method signatures of t when it is an
// interface type.
func (idx *unusedIndex) addInterface(t types.Type) {
	iface, ok := t.Underlying().(*types.Interface)
	if !ok {
		return
	}
	for i := 0; i < iface.NumMethods(); i++ {
		idx.ifaceMethods[methodSig(iface.Method(i))] = true
	}
}

// unwrapper is interface{ Unwrap() error }, which errors.Is and
// errors.As assert inside their function bodies, where an imported
// package's types are not recorded.
func unwrapper() types.Type {
	errT := types.NewTuple(types.NewVar(token.NoPos, nil, "", types.Universe.Lookup("error").Type()))
	unwrap := types.NewFunc(token.NoPos, nil, "Unwrap", types.NewSignatureType(nil, nil, nil, nil, errT, false))
	return types.NewInterfaceType([]*types.Func{unwrap}, nil).Complete()
}

// completeScope reports whether the suite loaded every package under
// the module-relative directory scope.
func (idx *unusedIndex) completeScope(s *Suite, scope string) bool {
	if done, ok := idx.complete[scope]; ok {
		return done
	}
	loaded := map[string]bool{}
	for _, p := range s.Packages {
		loaded[p.Rel] = true
	}
	dirs, err := GoDirs(filepath.Join(s.Root, filepath.FromSlash(scope)))
	done := err == nil
	for _, d := range dirs {
		if !loaded[relToSlash(s.Root, d)] {
			done = false
		}
	}
	idx.complete[scope] = done
	return done
}

// objKey names a package-level object or method across type-checker
// instances: "path.Name" or "path.Recv.Name". Fields, locals and
// objects outside any package key to "".
func objKey(obj types.Object) string {
	pkg := obj.Pkg()
	if pkg == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		if sig, _ := fn.Type().(*types.Signature); sig != nil && sig.Recv() != nil {
			return pkg.Path() + "." + recvName(fn) + "." + fn.Name()
		}
	}
	if obj.Parent() != pkg.Scope() {
		return ""
	}
	return pkg.Path() + "." + obj.Name()
}

// recvNamed returns the named type a method is declared on (nil for
// functions and interface methods).
func recvNamed(fn *types.Func) *types.Named {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// recvName is the receiver type's name ("" for an unnamed receiver).
func recvName(fn *types.Func) string {
	if named := recvNamed(fn); named != nil {
		return named.Obj().Name()
	}
	return ""
}

// methodSig keys a method by name and signature, qualified by package
// path so it compares equal across type-checker instances.
// Parameter names are left out: they are not part of the method's
// type.
func methodSig(fn *types.Func) string {
	qual := func(p *types.Package) string { return p.Path() }
	sig := fn.Type().(*types.Signature)
	var b strings.Builder
	b.WriteString(fn.Name())
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteString(" (")
		for i := 0; i < tuple.Len(); i++ {
			b.WriteString(types.TypeString(tuple.At(i).Type(), qual) + ",")
		}
		b.WriteString(")")
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}
