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
	"strings"
)

// Unused is the dead-export check.
var Unused = &Check{
	Name: "unused",
	Desc: "exported identifiers under internal/ are referenced by some non-test code",
	Run:  runUnused,
}

// unusedIndex is the suite-wide reference table the check builds once.
type unusedIndex struct {
	// used holds the keys (see objKey) of every referenced object.
	used map[string]bool
	// ifaceMethods holds name+signature keys of every interface method
	// type in the suite.
	ifaceMethods map[string]bool
	// complete caches, per internal-visibility scope, whether the suite
	// loaded every package in it.
	complete map[string]bool
}

// span is one declaration's source extent.
type span struct{ pos, end token.Pos }

// runUnused reports the unreferenced exports of one package.
func runUnused(s *Suite, p *Package, report Reporter) {
	scope, ok := visibilityScope(p.Rel)
	if !ok {
		return
	}
	idx := s.unusedIndex()
	if !idx.completeScope(s, scope) {
		return
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				fn, _ := p.Info.Defs[d.Name].(*types.Func)
				if !d.Name.IsExported() || fn == nil || idx.used[objKey(fn)] {
					continue
				}
				if d.Recv != nil {
					if idx.ifaceMethods[methodSig(fn)] {
						continue
					}
					report(d.Name.Pos(), "exported method %s.%s has no non-test reference; delete it",
						recvName(fn), fn.Name())
					continue
				}
				report(d.Name.Pos(), "exported function %s has no non-test reference; delete it", fn.Name())
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					for _, name := range specNames(spec) {
						if obj := p.Info.Defs[name]; name.IsExported() && obj != nil && !idx.used[objKey(obj)] {
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

// unusedIndex builds (once) the suite's reference table.
func (s *Suite) unusedIndex() *unusedIndex {
	s.unusedOnce.Do(func() { s.unused = buildUnusedIndex(s) })
	return s.unused
}

// buildUnusedIndex walks every loaded package's uses, selections and
// interface types.
func buildUnusedIndex(s *Suite) *unusedIndex {
	idx := &unusedIndex{used: map[string]bool{}, ifaceMethods: map[string]bool{}, complete: map[string]bool{}}
	// The object's own declaration does not keep it alive: a type's
	// receivers and method bodies name it, a recursive function calls
	// itself.
	own := map[string][]span{}
	for _, p := range s.Packages {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					sp := span{d.Pos(), d.End()}
					if fn, ok := p.Info.Defs[d.Name].(*types.Func); ok {
						own[objKey(fn)] = append(own[objKey(fn)], sp)
						if named := recvNamed(fn); named != nil {
							k := objKey(named.Obj())
							own[k] = append(own[k], sp)
						}
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						for _, name := range specNames(spec) {
							if obj := p.Info.Defs[name]; obj != nil {
								own[objKey(obj)] = append(own[objKey(obj)], span{spec.Pos(), spec.End()})
							}
						}
					}
				}
			}
		}
	}
	use := func(obj types.Object, pos token.Pos) {
		k := objKey(obj)
		if k == "" || idx.used[k] {
			return
		}
		for _, sp := range own[k] {
			if sp.pos <= pos && pos < sp.end {
				return
			}
		}
		idx.used[k] = true
	}
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
		for id, obj := range p.Info.Uses {
			use(obj, id.Pos())
		}
		for sel, selection := range p.Info.Selections {
			use(selection.Obj(), sel.Sel.Pos())
		}
		for _, tv := range p.Info.Types {
			idx.addInterface(tv.Type)
		}
		addScope(p.TypesPkg)
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
