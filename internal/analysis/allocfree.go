package analysis

import (
	"go/ast"
	"go/types"
)

// AllocFree enforces the zero-allocation contract on functions annotated
// //netpart:hotpath — the estimator's Estimate fast path, the search's
// scratch-probe helpers, and the halo encode/decode codec. The contract
// (see DESIGN.md) is: the steady-state, observer-free execution of the
// function performs no heap allocation, which is what keeps the
// O(K·log2 P) runtime search cheap enough to re-run on every adaptation
// cycle and what cmd/benchdiff's allocs/op gate measures dynamically.
//
// For every hot function it consults the solved summary (summary.go) and
// reports each allocation fact in the function's whole call tree — sites
// in the hot body itself and sites reached through calls alike — with the
// provenance chain down to the originating expression:
//
//	hot path core.Estimate reaches an allocation: call to
//	core.(Estimator).cluster → make allocates (estimate.go:101)
//
// The summary's allocation facts are make/new, &T{...}, closures that
// capture enclosing variables, explicit conversions of concrete values to
// interface types, appends that grow a fresh slice (an unsized local, a
// slice literal, or a nil conversion like []T(nil)), unresolved indirect
// calls, and stdlib calls outside the modeled allocation-free set (fmt.*
// among them). Guarded slow paths (isGuardedSlowPath), fmt.Errorf failure
// returns, //netpart:purecallback fields, and //nolint:netpart[/allocfree]
// waived sites have already been excluded at summary-build time, so a
// finding here means a real steady-state allocation (or an unresolved
// indirect call / unmodeled stdlib call that must be annotated or waived
// with a reason).
var AllocFree = &Analyzer{
	Name: "allocfree",
	Doc:  "proves //netpart:hotpath functions allocation-free through their whole call tree",
	Run:  runAllocFree,
}

func runAllocFree(pass *Pass) error {
	ip := pass.Inter
	if ip == nil {
		return nil // no interprocedural state wired (single-pass unit tests)
	}
	for _, fd := range enclosingFuncDecls(pass.Files) {
		if !funcHasDirective(fd, "netpart:hotpath") {
			continue
		}
		fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
		if fn == nil {
			continue
		}
		sum := ip.Summary(fn)
		if sum == nil {
			continue
		}
		for _, site := range sum.Allocs {
			pass.Reportf(site.Pos, "hot path %s reaches an allocation: %s",
				funcLabel(fn), ip.RenderChain(site))
		}
	}
	return nil
}

// isGuardedSlowPath recognizes the two sanctioned allocation guards: a nil
// comparison (lazy init, observer branches, optional features) and a
// cap/len inspection (grow-once scratch).
func isGuardedSlowPath(ifs *ast.IfStmt) bool {
	if condHasNilCompare(ifs.Cond) {
		return true
	}
	return condHasCapCall(ifs.Cond)
}

func condHasNilCompare(cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if e, ok := n.(ast.Expr); ok {
			if _, _, ok := nilComparison(e); ok {
				found = true
			}
		}
		return !found
	})
	return found
}

func condHasCapCall(cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && (id.Name == "cap" || id.Name == "len") {
				found = true
			}
		}
		return !found
	})
	return found
}
