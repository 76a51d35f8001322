package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// PoolFlow enforces the sync.Pool buffer rules the mmps transport
// documents on its bufPool. It has a structural and a temporal half.
//
// Structurally, direct (*sync.Pool).Get/Put calls are allowed only inside
// accessor functions (name starting with get/put), which is where the
// box/length/zeroing conventions live (checkPoolAccessors). Everything
// else must go through the accessor pair.
//
// Temporally, it runs the CFG + dataflow engine over each function body
// and reports a use-after-put or double-put exactly when some execution
// path realizes it:
//
//   - no false negatives at joins: a Put in every arm of an if poisons the
//     code after the join, and a Put at the bottom of a loop body poisons
//     the next iteration through the back edge;
//
//   - no false positives after re-get: reassigning the variable from the
//     pool on one path revives it on that path only, and a Put in one arm
//     does not taint a sibling arm it cannot reach.
//
// Aliasing combines a syntactic class with flow-sensitive state: `y := x`
// (or `y := *x`, `y := &x`) copies x's state to y at that point and joins
// the two variables into one alias class, and a Put through any member
// poisons the whole class — an alias taken before the Put names the same
// buffer. Rebinding a member to a fresh buffer revives that member alone,
// so re-get patterns stay clean. Closure bodies are separate units that
// start clean (delayed puts run at another time), and a deferred put is
// modeled at function exit, where it double-puts if the buffer was
// already recycled on some path.
var PoolFlow = &Analyzer{
	Name: "poolflow",
	Doc:  "sync.Pool discipline: Get/Put only in get*/put* accessors, and no use-after-put or double-put on any reachable path",
	Run:  runPoolFlow,
}

// Pool lattice bits ("may" powerset: union join). Untracked variables are
// implicitly clean.
const (
	poolClean uint8 = 1 << iota
	poolPoisoned
)

func runPoolFlow(pass *Pass) error {
	for _, fd := range enclosingFuncDecls(pass.Files) {
		checkPoolAccessors(pass, fd)
	}
	putters := putAccessors(pass)
	for _, fb := range funcBodies(pass.Files) {
		checkPoolFlowFunc(pass, putters, fb)
	}
	return nil
}

func checkPoolFlowFunc(pass *Pass, putters map[types.Object]bool, fb funcBody) {
	info := pass.TypesInfo
	// Fast path: skip bodies that never recycle a buffer.
	recycles := false
	inspectLeaf(fb.body, func(n ast.Node) bool {
		if recycles {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && putTargetCall(info, putters, call) != nil {
			recycles = true
		}
		return true
	})
	if !recycles {
		return
	}

	g := BuildCFG(fb.body)
	aliases := poolAliasClasses(info, fb.body)
	transfer := func(b *Block, s FlowState[types.Object]) FlowState[types.Object] {
		cleanRangeVars(info, g, b, s)
		for _, n := range b.Nodes {
			poolTransferNode(pass, info, putters, aliases, n, s, false)
		}
		return s
	}
	ins, reached := Forward(g, FlowState[types.Object]{}, transfer)

	for _, b := range g.Blocks {
		if !reached[b.Index] || ins[b.Index] == nil {
			continue
		}
		s := ins[b.Index].Clone()
		cleanRangeVars(info, g, b, s)
		for _, n := range b.Nodes {
			poolTransferNode(pass, info, putters, aliases, n, s, true)
		}
	}

	// Deferred puts run at exit, after every path's explicit recycling.
	exit := ins[g.Exit.Index]
	if exit == nil {
		return
	}
	s := exit.Clone()
	for i := len(g.Defers) - 1; i >= 0; i-- {
		if obj := putTargetCall(info, putters, g.Defers[i]); obj != nil {
			if s[obj]&poolPoisoned != 0 {
				pass.Reportf(g.Defers[i].Pos(), "pooled buffer %q recycled twice: this deferred Put runs after a Put on some path through the function", obj.Name())
			}
			poisonClass(aliases, obj, s)
		}
	}
}

// poolAliasClasses groups a body's variables connected by pure alias
// assignments (y := x, y := *x, y := &x): every member names the same
// underlying buffer, so a Put through one poisons them all. Classes are
// syntactic and body-wide; rebinding a member to a fresh buffer revives
// that member only (the assignment overwrites its state), which keeps
// re-get patterns clean while an alias taken before the Put stays
// poisoned with it.
func poolAliasClasses(info *types.Info, body *ast.BlockStmt) map[types.Object][]types.Object {
	parent := map[types.Object]types.Object{}
	var find func(o types.Object) types.Object
	find = func(o types.Object) types.Object {
		p, ok := parent[o]
		if !ok || p == o {
			parent[o] = o
			return o
		}
		r := find(p)
		parent[o] = r
		return r
	}
	inspectLeaf(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			lobj := identObj(info, lhs)
			src := aliasSource(info, as.Rhs[i])
			if lobj != nil && src != nil && lobj != src {
				parent[find(lobj)] = find(src)
			}
		}
		return true
	})
	roots := map[types.Object][]types.Object{}
	for o := range parent {
		r := find(o)
		roots[r] = append(roots[r], o)
	}
	classes := map[types.Object][]types.Object{}
	for _, members := range roots {
		if len(members) < 2 {
			continue
		}
		for _, o := range members {
			classes[o] = members
		}
	}
	return classes
}

// poisonClass marks obj and every alias-class sibling as recycled.
func poisonClass(aliases map[types.Object][]types.Object, obj types.Object, s FlowState[types.Object]) {
	s[obj] = poolPoisoned
	for _, o := range aliases[obj] {
		s[o] = poolPoisoned
	}
}

// poolTransferNode applies one node's effects to the pool state, reporting
// violations when report is set (the post-fixpoint replay).
func poolTransferNode(pass *Pass, info *types.Info, putters map[types.Object]bool, aliases map[types.Object][]types.Object, n ast.Node, s FlowState[types.Object], report bool) {
	switch n := n.(type) {
	case *ast.DeferStmt:
		return // modeled at exit
	case *ast.ExprStmt:
		if obj := putTargetStmt(info, putters, n); obj != nil {
			if report && s[obj]&poolPoisoned != 0 {
				pass.Reportf(n.Pos(), "pooled buffer %q recycled twice: a Put already ran on some path reaching this one", obj.Name())
			}
			poisonClass(aliases, obj, s)
			return
		}
	case *ast.AssignStmt:
		// Uses on the right-hand sides first (they read the old states),
		// except a pure 1:1 alias copy, which propagates state instead of
		// counting as a use.
		paired := len(n.Lhs) == len(n.Rhs)
		kind := make([]uint8, len(n.Lhs))
		for i, rhs := range n.Rhs {
			if paired {
				if src := aliasSource(info, rhs); src != nil {
					kind[i] = s[src]
					continue
				}
			}
			if report {
				reportPoolUses(pass, info, rhs, s)
			}
		}
		for i, lhs := range n.Lhs {
			lobj := identObj(info, lhs)
			if lobj == nil {
				// Indexed/field store: the base is a use.
				if report {
					reportPoolUses(pass, info, lhs, s)
				}
				continue
			}
			if paired {
				s[lobj] = kind[i]
			} else {
				// Multi-value assignment: whatever arrives is fresh.
				s[lobj] = poolClean
			}
		}
		return
	}
	if report {
		reportPoolUses(pass, info, n, s)
	}
}

// cleanRangeVars revives a range loop's Key/Value variables when b is the
// loop's head block: the head reassigns them from the operand each
// iteration, so a Put on the previous element must not poison the next one
// through the back edge (`for _, f := range frags { putBuf(f) }` recycles
// each element exactly once).
func cleanRangeVars(info *types.Info, g *CFG, b *Block, s FlowState[types.Object]) {
	rs := g.Ranges[b]
	if rs == nil {
		return
	}
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if e == nil {
			continue
		}
		if obj := identObj(info, e); obj != nil {
			s[obj] = poolClean
		}
	}
}

// aliasSource returns the variable a pure alias expression (`x`, `*x`, or
// `&x`) reads, or nil when the expression is anything else.
func aliasSource(info *types.Info, e ast.Expr) types.Object {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.StarExpr:
		e = ast.Unparen(x.X)
	case *ast.UnaryExpr:
		if x.Op != token.AND {
			return nil
		}
		e = ast.Unparen(x.X)
	}
	return identObj(info, e)
}

// reportPoolUses flags every identifier in the node (closures pruned) that
// reads a buffer poisoned on some path.
func reportPoolUses(pass *Pass, info *types.Info, n ast.Node, s FlowState[types.Object]) {
	inspectLeaf(n, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if obj == nil || s[obj]&poolPoisoned == 0 {
			return true
		}
		pass.Reportf(id.Pos(), "pooled buffer %q used after Put on some path: the pool may already have handed this memory to another goroutine", id.Name)
		return true
	})
}

// putTargetStmt returns the object an expression statement recycles, or
// nil.
func putTargetStmt(info *types.Info, putters map[types.Object]bool, es *ast.ExprStmt) types.Object {
	call, ok := ast.Unparen(es.X).(*ast.CallExpr)
	if !ok {
		return nil
	}
	return putTargetCall(info, putters, call)
}

// putTargetCall returns the object a call recycles — the argument of a
// direct (*sync.Pool).Put or of one of the package's put accessors — or
// nil.
func putTargetCall(info *types.Info, putters map[types.Object]bool, call *ast.CallExpr) types.Object {
	if len(call.Args) == 0 {
		return nil
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if fun.Sel.Name == "Put" && isSyncPool(info.TypeOf(fun.X)) {
			break
		}
		if !putters[info.Uses[fun.Sel]] {
			return nil
		}
	case *ast.Ident:
		if !putters[info.Uses[fun]] {
			return nil
		}
	default:
		return nil
	}
	arg := ast.Unparen(call.Args[0])
	if u, ok := arg.(*ast.UnaryExpr); ok && u.Op.String() == "&" {
		arg = ast.Unparen(u.X)
	}
	return identObj(info, arg)
}

// putAccessors collects this package's pool-put accessor functions: the
// ones whose bodies call (*sync.Pool).Put directly (mmps.putBuf). Matching
// by behavior rather than by name keeps unrelated Put* helpers (say,
// binary.BigEndian.PutUint32) out of the lifetime tracking.
func putAccessors(pass *Pass) map[types.Object]bool {
	putters := map[types.Object]bool{}
	for _, fd := range enclosingFuncDecls(pass.Files) {
		callsPut := false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok &&
					sel.Sel.Name == "Put" && isSyncPool(pass.TypesInfo.TypeOf(sel.X)) {
					callsPut = true
				}
			}
			return !callsPut
		})
		if callsPut {
			if obj := pass.TypesInfo.Defs[fd.Name]; obj != nil {
				putters[obj] = true
			}
		}
	}
	return putters
}

// checkPoolAccessors flags direct sync.Pool Get/Put outside get*/put*
// functions.
func checkPoolAccessors(pass *Pass, fd *ast.FuncDecl) {
	name := strings.ToLower(fd.Name.Name)
	if strings.HasPrefix(name, "get") || strings.HasPrefix(name, "put") {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Get" && sel.Sel.Name != "Put") {
			return true
		}
		if isSyncPool(pass.TypesInfo.TypeOf(sel.X)) {
			pass.Reportf(call.Pos(), "direct sync.Pool.%s outside a get*/put* accessor; route through the accessor pair so lifetime conventions stay in one place", sel.Sel.Name)
		}
		return true
	})
}

// isSyncPool reports whether t is sync.Pool or *sync.Pool.
func isSyncPool(t types.Type) bool {
	return isSyncNamed(t, "Pool")
}
