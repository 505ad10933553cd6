package lint

// The check registry and the small go/ast + go/types helpers every
// check shares: resolving a call to a package-level function, walking
// receiver types to their defining package, and classifying float
// types.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Reporter records one finding at a position; the driver binds it to
// the running check's name.
type Reporter func(pos token.Pos, format string, args ...any)

// A Check is one named analyzer: Run inspects a loaded package and
// reports findings through the bound reporter.
type Check struct {
	// Name is the identifier findings carry and lint:allow directives
	// name.
	Name string
	// Desc is the one-line summary llama-lint -list prints.
	Desc string
	// Run inspects one package.
	Run func(s *Suite, p *Package, report Reporter)
}

// Checks returns the registered analyzer suite in reporting order.
func Checks() []*Check {
	return []*Check{Purity, FloatEnc, Context, MutexIO, DocLint, Unused}
}

// pkgFuncCall resolves a call of the form pkg.Fn(...) to the imported
// package's path and the function name. It reports ok=false for method
// calls, locally defined functions, and builtins.
func pkgFuncCall(info *types.Info, call *ast.CallExpr) (path, name string, ok bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", "", false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// methodCallPkg resolves a method call x.M(...) to the package that
// defines M (following embedded fields) and the receiver's named type.
func methodCallPkg(info *types.Info, call *ast.CallExpr) (pkgPath, recvType, name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", "", false
	}
	selection, isMethod := info.Selections[sel]
	if !isMethod || selection.Kind() != types.MethodVal {
		return "", "", "", false
	}
	fn, isFunc := selection.Obj().(*types.Func)
	if !isFunc || fn.Pkg() == nil {
		return "", "", "", false
	}
	recv := selection.Recv()
	if ptr, isPtr := recv.(*types.Pointer); isPtr {
		recv = ptr.Elem()
	}
	tn := ""
	if named, isNamed := recv.(*types.Named); isNamed {
		tn = named.Obj().Name()
	}
	return fn.Pkg().Path(), tn, fn.Name(), true
}

// identObj resolves an identifier to its object whether the ident
// defines or uses it.
func identObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// isMapType reports whether the expression's type is (or aliases) a
// map.
func isMapType(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// isChanType reports whether the expression's type is (or aliases) a
// channel.
func isChanType(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// hasFloatCore reports whether t is a float or complex type, possibly
// behind pointers, slices, arrays, or map values — the types whose
// default formatting loses bits. Struct fields are not walked (the
// persistence structs carry pre-encoded strings by design).
func hasFloatCore(t types.Type) bool {
	for depth := 0; t != nil && depth < 8; depth++ {
		switch u := t.Underlying().(type) {
		case *types.Basic:
			switch u.Kind() {
			case types.Float32, types.Float64, types.Complex64, types.Complex128,
				types.UntypedFloat, types.UntypedComplex:
				return true
			}
			return false
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		case *types.Map:
			t = u.Elem()
		default:
			return false
		}
	}
	return false
}
