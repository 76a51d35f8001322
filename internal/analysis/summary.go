package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file computes per-function summaries over the call graph in
// callgraph.go: does the function allocate (and where), does it reach the
// wall clock or the global rand source, and which parameters escape. The
// summaries are solved bottom-up over the SCC condensation with a fixpoint
// inside each component (recursion), so by the time a caller is
// summarized every callee outside its own component is final.
//
// The summary lattice is a may-analysis over site sets: each fact is a
// *Site chain whose head is a position inside the summarized function (an
// allocation expression or a call) and whose Inner pointers descend
// through callees to the originating site — the provenance chain allocfree
// prints. Sets only grow during the fixpoint and are capped at maxSites
// per category, so termination is structural.
//
// Three filters keep the summaries aligned with the analyzers' contracts:
//
//   - guarded slow paths (nil-/cap-guard, isGuardedSlowPath) are excluded
//     from allocation facts — but not from wall-clock facts, because a
//     guard sanctions allocation, not nondeterminism;
//   - fmt.Errorf / errors.New directly inside a return statement is the
//     failure path, never the steady state, and contributes nothing;
//   - a site whose line carries a well-formed //nolint:netpart[/allocfree|
//     /determinism] suppression is dropped at the origin, so one reasoned
//     waiver stops the fact from resurfacing in every caller.
//
// Stdlib calls have no loaded bodies, so they are modeled: a small
// whitelist of provably non-allocating packages and methods (math,
// math/bits, sync/atomic, binary.PutUint*/Uint*, sync.Pool.Get/Put, lock
// and WaitGroup operations, time.Duration arithmetic) passes; time.Now/
// Since/Until and the auto-seeded math/rand globals contribute wall-clock
// and rand facts; every other stdlib call is conservatively assumed to
// allocate. Unresolved indirect calls are likewise conservative, except
// through //netpart:purecallback fields — the annotation-callback contract
// (core.Annotations), whose installed callbacks promise to be pure.
//
// Functions or packages annotated //netpart:wallclock declare that they
// measure real time by design (live runtimes, transports): their
// summaries expose no wall-clock or rand facts to callers, because their
// timing results are data, not hidden nondeterminism.

// maxSites bounds each summary category (enough for useful diagnostics,
// small enough to keep the fixpoint cheap).
const maxSites = 8

// A Site is one link of a provenance chain.
type Site struct {
	// Pos is a position inside the summarized function: the allocating
	// expression itself, or the call through which the fact arrives.
	Pos token.Pos
	// Desc says what happens there ("make([]float64, N)", "call to
	// time.Now", "indirect call through cb.fn").
	Desc string
	// Callee is the resolved target when the fact arrives through a call.
	Callee *types.Func
	// Inner is the callee-side site this call reaches (nil for leaves).
	Inner *Site
}

// Summary is the solved interprocedural fact set of one function.
type Summary struct {
	Fn *types.Func
	// Allocs are the reachable allocation sites outside guarded slow
	// paths (empty means: proven allocation-free through the whole call
	// tree, modulo the documented stdlib model).
	Allocs []*Site
	// Clock are reachable wall-clock reads; Rand reachable global-rand
	// uses. Empty for //netpart:wallclock functions and packages.
	Clock []*Site
	Rand  []*Site
	// ParamEscapes mirrors FuncNode.ParamEscapes after the solve.
	ParamEscapes []bool
}

// Summary returns the solved summary of fn, or nil for functions outside
// the call graph (stdlib, undeclared).
func (ip *Interproc) Summary(fn *types.Func) *Summary { return ip.sums[fn] }

// --- intraprocedural seeding ---

// scanDirect populates a node's direct allocation sites and parameter
// escapes. Wall-clock and rand seeds come from call sites during the
// solve (they are stdlib calls).
func (ip *Interproc) scanDirect(node *FuncNode) {
	info := node.Pkg.Info
	var walk func(root ast.Node, guarded bool)
	walk = func(root ast.Node, guarded bool) {
		ast.Inspect(root, func(n ast.Node) bool {
			if ifs, ok := n.(*ast.IfStmt); ok && !guarded && isGuardedSlowPath(ifs) {
				if ifs.Init != nil {
					walk(ifs.Init, guarded)
				}
				walk(ifs.Cond, guarded)
				walk(ifs.Body, true)
				if ifs.Else != nil {
					walk(ifs.Else, guarded)
				}
				return false
			}
			if guarded {
				return true // sanctioned slow path: no allocation facts
			}
			switch x := n.(type) {
			case *ast.CallExpr:
				ip.scanDirectCall(node, x, info)
			case *ast.UnaryExpr:
				if x.Op == token.AND {
					if _, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
						ip.addDirectAlloc(node, x.Pos(), "&composite literal escapes to the heap")
					}
				}
			case *ast.FuncLit:
				if capt := capturedVar(info, node.Decl, x); capt != "" {
					ip.addDirectAlloc(node, x.Pos(), "closure capturing "+capt+" allocates")
				}
			}
			return true
		})
	}
	walk(node.Decl.Body, false)
	ip.scanParamEscapes(node)
}

// scanDirectCall records the allocation behavior of builtin calls and
// explicit interface conversions (call edges are handled by the solve).
func (ip *Interproc) scanDirectCall(node *FuncNode, call *ast.CallExpr, info *types.Info) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && isBuiltin(info, id) {
		switch id.Name {
		case "make":
			ip.addDirectAlloc(node, call.Pos(), "make allocates")
		case "new":
			ip.addDirectAlloc(node, call.Pos(), "new allocates")
		case "append":
			if len(call.Args) > 0 {
				ip.scanDirectAppend(node, call, info)
			}
		}
		return
	}
	// Explicit conversion of a concrete value to an interface type.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		if _, isIface := tv.Type.Underlying().(*types.Interface); isIface {
			if at := info.TypeOf(call.Args[0]); at != nil {
				if _, argIface := at.Underlying().(*types.Interface); !argIface {
					if b, basic := at.Underlying().(*types.Basic); !basic || b.Kind() != types.UntypedNil {
						ip.addDirectAlloc(node, call.Pos(), "conversion to interface boxes the value")
					}
				}
			}
		}
	}
}

// scanDirectAppend applies the unsized-append rule: appends into
// caller-owned, field-held, or make-sized storage amortize; a local
// declared without capacity, a slice literal, and a nil conversion like
// []T(nil) start a fresh backing array on every call.
func (ip *Interproc) scanDirectAppend(node *FuncNode, call *ast.CallExpr, info *types.Info) {
	switch dst := ast.Unparen(call.Args[0]).(type) {
	case *ast.SliceExpr:
		return // reuse idiom: append(buf[:0], ...)
	case *ast.Ident:
		obj := identObj(info, dst)
		if obj == nil {
			return
		}
		decl := localSliceDecl(node.Decl, obj)
		if decl == nil || declHasCapacity(info, decl, obj) {
			return
		}
		ip.addDirectAlloc(node, call.Pos(), "append to unsized local slice "+dst.Name+" grows")
	case *ast.CompositeLit:
		ip.addDirectAlloc(node, call.Pos(), "append to a fresh slice literal allocates")
	case *ast.CallExpr:
		if isNilConversion(info, dst) {
			ip.addDirectAlloc(node, call.Pos(), "append to a fresh nil-converted slice allocates")
		}
	}
}

// isNilConversion reports whether call converts the untyped nil to a type,
// as in []T(nil).
func isNilConversion(info *types.Info, call *ast.CallExpr) bool {
	return len(call.Args) == 1 && info.Types[call.Fun].IsType() && info.Types[call.Args[0]].IsNil()
}

// localSliceDecl finds the declaration node of obj inside the function
// declaration root (nil when obj is not a local of that function, or is
// one of its parameters: those are caller-owned).
func localSliceDecl(root *ast.FuncDecl, obj types.Object) ast.Node {
	if obj.Pos() < root.Pos() || obj.Pos() > root.End() {
		return nil // declared outside this function
	}
	var decl ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		switch d := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range d.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && id.Pos() == obj.Pos() {
					decl = d
					return false
				}
			}
		case *ast.ValueSpec:
			for _, id := range d.Names {
				if id.Pos() == obj.Pos() {
					decl = d
					return false
				}
			}
		case *ast.Field:
			for _, id := range d.Names {
				if id.Pos() == obj.Pos() {
					decl = d // parameter or receiver
					return false
				}
			}
		}
		return decl == nil
	})
	if _, isField := decl.(*ast.Field); isField {
		return nil // parameters are caller-owned
	}
	return decl
}

// declHasCapacity reports whether the local declaration gives the slice
// usable capacity: a make call, a call result (assumed sized), or a
// reslice of existing storage. `var x []T`, `x := []T{}` and
// `x := []T(nil)` do not.
func declHasCapacity(info *types.Info, decl ast.Node, obj types.Object) bool {
	var rhs ast.Expr
	switch d := decl.(type) {
	case *ast.AssignStmt:
		for i, lhs := range d.Lhs {
			if id, ok := lhs.(*ast.Ident); ok && id.Pos() == obj.Pos() && i < len(d.Rhs) {
				rhs = d.Rhs[i]
			}
		}
	case *ast.ValueSpec:
		for i, id := range d.Names {
			if id.Pos() == obj.Pos() && i < len(d.Values) {
				rhs = d.Values[i]
			}
		}
	}
	if rhs == nil {
		return false // var x []T — no storage
	}
	switch r := ast.Unparen(rhs).(type) {
	case *ast.CallExpr:
		if id, ok := ast.Unparen(r.Fun).(*ast.Ident); ok && id.Name == "make" && isBuiltin(info, id) {
			return len(r.Args) >= 2 // make with a size or capacity
		}
		if tv, ok := info.Types[r.Fun]; ok && tv.IsType() {
			return false // conversion like []T(nil)
		}
		return true // result of a function call: assume sized scratch
	case *ast.SliceExpr, *ast.IndexExpr, *ast.SelectorExpr, *ast.Ident:
		return true // view of existing storage
	case *ast.CompositeLit:
		return len(r.Elts) > 0 // non-empty literal at least holds its elements
	}
	return false
}

// capturedVar returns the name of a variable the closure captures from its
// enclosing function, or "".
func capturedVar(info *types.Info, fd *ast.FuncDecl, lit *ast.FuncLit) string {
	name := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || name != "" {
			return name == ""
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Pos() >= fd.Pos() && v.Pos() < lit.Pos() {
			name = v.Name()
		}
		return true
	})
	return name
}

func (ip *Interproc) addDirectAlloc(node *FuncNode, pos token.Pos, desc string) {
	if ip.suppressedAt(pos, "allocfree") {
		return
	}
	node.DirectAllocs = appendSite(node.DirectAllocs, &Site{Pos: pos, Desc: desc})
}

// scanParamEscapes marks parameters stored beyond the call: assigned to a
// selector (field) or package-level variable, or sent on a channel.
// Approximate — direct stores only.
func (ip *Interproc) scanParamEscapes(node *FuncNode) {
	info := node.Pkg.Info
	sig, ok := node.Fn.Type().(*types.Signature)
	if !ok || sig.Params().Len() == 0 {
		return
	}
	idx := map[types.Object]int{}
	for i := 0; i < sig.Params().Len(); i++ {
		idx[sig.Params().At(i)] = i
	}
	node.ParamEscapes = make([]bool, sig.Params().Len())
	paramOf := func(e ast.Expr) (int, bool) {
		obj := identObj(info, e)
		if obj == nil {
			return 0, false
		}
		i, ok := idx[obj]
		return i, ok
	}
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range s.Rhs {
				pi, ok := paramOf(rhs)
				if !ok || i >= len(s.Lhs) {
					continue
				}
				switch lhs := ast.Unparen(s.Lhs[i]).(type) {
				case *ast.SelectorExpr:
					node.ParamEscapes[pi] = true
				case *ast.Ident:
					if obj := identObj(info, lhs); obj != nil && obj.Parent() == node.Pkg.Types.Scope() {
						node.ParamEscapes[pi] = true
					}
				}
			}
		case *ast.SendStmt:
			if pi, ok := paramOf(s.Value); ok {
				node.ParamEscapes[pi] = true
			}
		}
		return true
	})
}

// --- the bottom-up solve ---

// solve seeds every node with its intraprocedural facts and then runs the
// SCC-ordered fixpoint, merging callee summaries through each call site.
func (ip *Interproc) solve() {
	for _, node := range ip.nodes {
		ip.scanDirect(node)
	}
	for _, scc := range ip.sccs {
		for _, node := range scc {
			s := &Summary{Fn: node.Fn, ParamEscapes: node.ParamEscapes}
			s.Allocs = append(s.Allocs, node.DirectAllocs...)
			ip.sums[node.Fn] = s
		}
		for changed := true; changed; {
			changed = false
			for _, node := range scc {
				if ip.resolveNode(node) {
					changed = true
				}
			}
		}
	}
}

// wallclockWaived reports whether the node opts out of wall-clock/rand
// propagation (//netpart:wallclock on the function or its package).
func (ip *Interproc) wallclockWaived(node *FuncNode) bool {
	return funcHasDirective(node.Decl, "netpart:wallclock") ||
		packageHasDirective(node.Pkg.Files, "netpart:wallclock")
}

// resolveNode recomputes one node's call-derived facts from the current
// callee summaries; it reports whether the summary grew.
func (ip *Interproc) resolveNode(node *FuncNode) bool {
	s := ip.sums[node.Fn]
	before := len(s.Allocs) + len(s.Clock) + len(s.Rand)
	waived := ip.wallclockWaived(node)
	for _, cs := range node.Calls {
		pos := cs.Call.Pos()
		allocOK := !cs.Guarded && !ip.suppressedAt(pos, "allocfree")
		detOK := !waived && !ip.suppressedAt(pos, "determinism")
		if cs.PureCallback {
			continue
		}
		if cs.IndirectDesc != "" {
			if allocOK {
				s.Allocs = appendSite(s.Allocs, &Site{Pos: pos, Desc: "indirect call through " + cs.IndirectDesc + " (unresolved, assumed allocating)"})
			}
			continue
		}
		if cs.Interface && len(cs.Targets) == 0 {
			if allocOK {
				s.Allocs = appendSite(s.Allocs, &Site{Pos: pos, Desc: "interface call with no in-module implementation (assumed allocating)"})
			}
			continue
		}
		for _, target := range cs.Targets {
			if tn := ip.nodes[target]; tn != nil {
				ts := ip.sums[target]
				if ts == nil {
					continue // same-SCC member not yet seeded this round
				}
				if allocOK && len(ts.Allocs) > 0 {
					s.Allocs = appendSite(s.Allocs, &Site{Pos: pos, Desc: "call to " + funcLabel(target), Callee: target, Inner: ts.Allocs[0]})
				}
				if detOK && len(ts.Clock) > 0 {
					s.Clock = appendSite(s.Clock, &Site{Pos: pos, Desc: "call to " + funcLabel(target), Callee: target, Inner: ts.Clock[0]})
				}
				if detOK && len(ts.Rand) > 0 {
					s.Rand = appendSite(s.Rand, &Site{Pos: pos, Desc: "call to " + funcLabel(target), Callee: target, Inner: ts.Rand[0]})
				}
				continue
			}
			// No body: stdlib (or unloaded) — consult the model.
			ip.mergeStdlib(s, cs, target, allocOK, detOK)
		}
	}
	return len(s.Allocs)+len(s.Clock)+len(s.Rand) != before
}

// mergeStdlib folds one modeled stdlib callee into the summary.
func (ip *Interproc) mergeStdlib(s *Summary, cs *Callsite, fn *types.Func, allocOK, detOK bool) {
	pos := cs.Call.Pos()
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	name := fn.Name()
	switch pkg {
	case "time":
		if nondeterministicTimeFuncs[name] {
			if detOK {
				s.Clock = appendSite(s.Clock, &Site{Pos: pos, Desc: "time." + name})
			}
			return
		}
	case "math/rand", "math/rand/v2":
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil && !seededRandConstructors[name] {
			if detOK {
				s.Rand = appendSite(s.Rand, &Site{Pos: pos, Desc: "global " + pkg[strings.LastIndex(pkg, "/")+1:] + "." + name})
			}
			return
		}
	}
	if !allocOK || nonallocStdlib(fn) {
		return
	}
	if (pkg == "fmt" && name == "Errorf") || (pkg == "errors" && name == "New") {
		if cs.InReturn || cs.InPanic {
			return // error construction on the failure path only
		}
	}
	if pkg == "fmt" && strings.HasPrefix(name, "Sprint") && cs.InPanic {
		return // panic(fmt.Sprintf(...)): the failure path, never steady state
	}
	s.Allocs = appendSite(s.Allocs, &Site{Pos: pos, Desc: "call to " + funcLabel(fn) + " (stdlib, not modeled allocation-free)"})
}

// nonallocStdPkgs are packages whose exported functions and methods never
// heap-allocate.
var nonallocStdPkgs = map[string]bool{
	"math":        true,
	"math/bits":   true,
	"sync/atomic": true,
	"unsafe":      true,
	"cmp":         true,
}

// nonallocSyncMethods are the sync primitives hot paths are allowed to
// touch. sync.Pool.Get/Put are the designed amortization mechanism
// (buffers recycle instead of allocating once the pool is warm).
var nonallocSyncMethods = map[string]bool{
	"Lock": true, "Unlock": true, "RLock": true, "RUnlock": true,
	"TryLock": true, "TryRLock": true,
	"Get": true, "Put": true,
	"Add": true, "Done": true, "Wait": true,
}

// nonallocStdlib reports whether a body-less callee is modeled as
// allocation-free. Everything not listed is conservatively allocating.
func nonallocStdlib(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return true // universe-scope (error.Error reached via interface has a pkg; builtins never get here)
	}
	path := pkg.Path()
	if nonallocStdPkgs[path] {
		return true
	}
	name := fn.Name()
	switch path {
	case "encoding/binary":
		return strings.HasPrefix(name, "Uint") || strings.HasPrefix(name, "PutUint") ||
			strings.HasPrefix(name, "PutVarint") || strings.HasPrefix(name, "Varint")
	case "sync":
		return nonallocSyncMethods[name]
	case "time":
		// time.Duration arithmetic (Seconds, Milliseconds, ...) is pure;
		// only methods qualify — package-level constructors may allocate.
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			t := sig.Recv().Type()
			if named, ok := t.(*types.Named); ok && named.Obj().Name() == "Duration" {
				return true
			}
		}
	}
	return false
}

// appendSite adds a site, deduplicating by position and respecting the
// per-category cap.
func appendSite(sites []*Site, site *Site) []*Site {
	for _, s := range sites {
		if s.Pos == site.Pos {
			return sites
		}
	}
	if len(sites) >= maxSites {
		return sites
	}
	return append(sites, site)
}

// RenderChain formats a provenance chain for diagnostics:
//
//	call to core.(Estimator).cluster → make allocates (estimate.go:101)
func (ip *Interproc) RenderChain(site *Site) string {
	var b strings.Builder
	cur := site
	for depth := 0; cur != nil && depth < 8; depth++ {
		if depth > 0 {
			b.WriteString(" → ")
		}
		if cur.Callee != nil {
			b.WriteString(funcLabel(cur.Callee))
		} else {
			b.WriteString(cur.Desc)
			pos := ip.fset.Position(cur.Pos)
			b.WriteString(" (" + shortPos(pos) + ")")
		}
		cur = cur.Inner
	}
	return b.String()
}

// shortPos trims a position to basename:line.
func shortPos(p token.Position) string {
	name := p.Filename
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return name + ":" + itoa(p.Line)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	neg := n < 0
	if neg {
		n = -n
	}
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
