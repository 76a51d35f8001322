package analysis

import (
	"go/ast"
	"go/types"
)

// walkStack traverses the AST calling fn with each node and the stack of
// its ancestors (outermost first, not including n). Returning false prunes
// the subtree.
func walkStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !fn(n, stack) {
			return false
		}
		stack = append(stack, n)
		return true
	})
}

// calleeFunc resolves the function or method a call statically invokes,
// or nil when it cannot (dynamic calls, missing type info, conversions).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// calleePkgFunc reports the package path and name of a call's static
// callee when it is a package-level function ("" path when unresolved or a
// method).
func calleePkgFunc(info *types.Info, call *ast.CallExpr) (pkgPath, name string) {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return "", ""
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return "", "" // method, not a package-level function
	}
	return fn.Pkg().Path(), fn.Name()
}

// nilComparison decomposes `x == nil` / `x != nil` (either operand order),
// returning the non-nil operand and whether the operator is ==.
func nilComparison(e ast.Expr) (operand ast.Expr, isEq, ok bool) {
	be, okb := ast.Unparen(e).(*ast.BinaryExpr)
	if !okb || (be.Op.String() != "==" && be.Op.String() != "!=") {
		return nil, false, false
	}
	isNil := func(x ast.Expr) bool {
		id, ok := ast.Unparen(x).(*ast.Ident)
		return ok && id.Name == "nil"
	}
	switch {
	case isNil(be.Y):
		return be.X, be.Op.String() == "==", true
	case isNil(be.X):
		return be.Y, be.Op.String() == "==", true
	}
	return nil, false, false
}

// identObj resolves an identifier expression to its object (nil for
// non-identifiers or unresolved names).
func identObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// enclosingFuncDecls returns the package's top-level function declarations
// with bodies.
func enclosingFuncDecls(files []*ast.File) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				out = append(out, fd)
			}
		}
	}
	return out
}

// isMapType reports whether the expression's static type is a map
// (false when type info is missing — conservative for analyzers).
func isMapType(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// isBuiltin reports whether the identifier resolves to a Go builtin.
func isBuiltin(info *types.Info, id *ast.Ident) bool {
	_, ok := info.Uses[id].(*types.Builtin)
	return ok
}
