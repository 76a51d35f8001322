package analysis_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"testing"

	"netpart/internal/analysis"
	"netpart/internal/analysis/protomc"
)

// haloProto names the stencil's one mmps halo exchange: the lockstep
// cycle loop every RunLive* and RunLiveAdaptive rank runs.
const haloProto = "stencil.haloCycles"

// TestExtractRealProtocols extracts every //netpart:lockstep protocol of
// the committed tree and pins the inventory: the stencil halo exchange and
// the repartitioning round extract symbolically, the row migration and FT
// recovery barrier route to builtin models, and nothing is unextractable.
// It also pins the halo frame codec to its two users — the annotated halo
// exchange and the FT envelope — so no runtime can grow a second,
// unverified halo exchange around the codec.
func TestExtractRealProtocols(t *testing.T) {
	pkgs, ip := loadModule(t)
	protos, diags := analysis.ExtractProtos(pkgs, ip)
	for _, d := range diags {
		t.Errorf("unexpected extraction diagnostic: %s", d)
	}
	byName := map[string]*analysis.LockstepProto{}
	models := map[string]bool{}
	for _, lp := range protos {
		if lp.Model != "" {
			models[lp.Model] = true
			continue
		}
		byName[lp.Proto.Name] = lp
	}
	for _, want := range []string{haloProto, "repart.Round"} {
		if byName[want] == nil {
			t.Fatalf("protocol %s not extracted; got %v (models %v)", want, keys(byName), models)
		}
	}
	for _, want := range []string{"migration", "ft-recovery"} {
		if !models[want] {
			t.Errorf("builtin model %s not declared by any //netpart:lockstep model= directive", want)
		}
	}

	callers := haloCodecCallers(pkgs)
	halo := byName[haloProto].Pos
	ftEnvelope := map[string]bool{
		"(*netpart/internal/stencil.ftTask).sendBorder": true,
		"(*netpart/internal/stencil.ftTask).dispatch":   true,
	}
	for codec, fns := range callers {
		for _, c := range fns {
			if c.pos != halo && !ftEnvelope[c.name] {
				t.Errorf("%s calls %s; only the annotated halo exchange (%s) and the FT envelope may use the halo frame codec", c.name, codec, haloProto)
			}
		}
	}
	for _, codec := range []string{"appendHaloFrame", "parseHaloFrame"} {
		found := false
		for _, c := range callers[codec] {
			found = found || c.pos == halo
		}
		if !found {
			t.Errorf("the annotated halo exchange %s does not call %s", haloProto, codec)
		}
	}
}

// codecCaller is one non-test function that calls a halo codec function.
type codecCaller struct {
	name string // types.Func full name
	pos  token.Position
}

// haloCodecCallers maps each halo frame codec function to the functions of
// the loaded (non-test) packages that call it.
func haloCodecCallers(pkgs []*analysis.Package) map[string][]codecCaller {
	out := map[string][]codecCaller{}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				caller, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if caller == nil {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					id, ok := ast.Unparen(call.Fun).(*ast.Ident)
					if !ok {
						return true
					}
					fn, _ := pkg.Info.Uses[id].(*types.Func)
					if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "netpart/internal/stencil" {
						return true
					}
					if name := fn.Name(); name == "appendHaloFrame" || name == "parseHaloFrame" {
						out[name] = append(out[name], codecCaller{name: caller.FullName(), pos: pkg.Fset.Position(fd.Pos())})
					}
					return true
				})
			}
		}
	}
	return out
}

func keys(m map[string]*analysis.LockstepProto) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// extractOne extracts a single named protocol from the committed tree.
func extractOne(t *testing.T, name string) *protomc.Proto {
	t.Helper()
	pkgs, ip := loadModule(t)
	protos, diags := analysis.ExtractProtos(pkgs, ip)
	for _, d := range diags {
		t.Errorf("unexpected extraction diagnostic: %s", d)
	}
	for _, lp := range protos {
		if lp.Proto != nil && lp.Proto.Name == name {
			return lp.Proto
		}
	}
	t.Fatalf("protocol %s not found", name)
	return nil
}

// TestRepartRoundProtocol checks the extracted gather/broadcast round is
// deadlock-free and message-conserving at every bounded P under both
// transport semantics. The round has no data-dependent unknowns: its loop
// bounds are affine in P and its only branch is the rank-0 hub split.
func TestRepartRoundProtocol(t *testing.T) {
	proto := extractOne(t, "repart.Round")
	if len(proto.Params) != 0 {
		t.Fatalf("repart.Round extracted %d shared parameters, want 0: %+v", len(proto.Params), proto.Params)
	}
	for p := 2; p <= 5; p++ {
		sys, err := protomc.Instantiate(proto, p)
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		for _, sem := range []protomc.Semantics{protomc.Rendezvous, protomc.Buffered} {
			res, err := protomc.Check(sys, protomc.Config{Sem: sem})
			if err != nil {
				t.Fatalf("P=%d %s: %v", p, sem, err)
			}
			if !res.OK() {
				t.Errorf("P=%d %s: %s: %s", p, sem, res.Violation.Kind, res.Violation.Detail)
			}
		}
	}
}

// TestHaloExchangeProtocol checks the extracted stencil halo exchange —
// the odd-even pairwise order, both of its parts — is deadlock-free and
// message-conserving under BOTH semantics at every bounded P, across every
// assignment of its one shared parameter, the cycle count. The variant is
// not a parameter: the shared rank cycle runs the same two exchange parts
// for STEN-1 and STEN-2 and lets the variant choose only which rows are
// computed between them, so one protocol covers both variants. Rendezvous
// safety is the point: the old send-both-then-receive-both order
// deadlocks on an unbuffered transport (TestUnpairedHaloDeadlocks pins
// that counterexample), and this test is the proof the rewrite closed it.
func TestHaloExchangeProtocol(t *testing.T) {
	proto := extractOne(t, haloProto)
	if len(proto.Params) != 1 {
		t.Fatalf("%s extracted %d shared parameters, want 1 (trip count): %+v",
			haloProto, len(proto.Params), proto.Params)
	}
	if !hasModGuard(proto.Ops) {
		t.Errorf("expected a rank%%2 parity guard in the extracted halo protocol")
	}
	if phases := modGuardPhases(proto.Ops); !phases[0] || !phases[1] {
		t.Errorf("extracted halo protocol has parity guards for parts %v, want both parts 0 and 1", phases)
	}
	for p := 2; p <= 5; p++ {
		systems, err := protomc.InstantiateAll(proto, p)
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if len(systems) != 3 {
			t.Fatalf("P=%d: %d parameter assignments, want 3 trip counts", p, len(systems))
		}
		for _, sys := range systems {
			for _, sem := range []protomc.Semantics{protomc.Rendezvous, protomc.Buffered} {
				res, err := protomc.Check(sys, protomc.Config{Sem: sem})
				if err != nil {
					t.Fatalf("P=%d %s [%s]: %v", p, sem, sys.Assign, err)
				}
				if !res.OK() {
					t.Errorf("P=%d %s [%s]: %s: %s\nschedule: %v",
						p, sem, sys.Assign, res.Violation.Kind, res.Violation.Detail, res.Violation.Steps)
				}
			}
		}
	}
}

// hasModGuard walks the op tree for a GMod parity guard.
func hasModGuard(ops []protomc.Op) bool {
	var guardHasMod func(g protomc.Guard) bool
	guardHasMod = func(g protomc.Guard) bool {
		if g.Kind == protomc.GMod {
			return true
		}
		for _, s := range g.Subs {
			if guardHasMod(s) {
				return true
			}
		}
		return false
	}
	for _, op := range ops {
		if op.Kind == protomc.OpIf && guardHasMod(op.Cond) {
			return true
		}
		if hasModGuard(op.Then) || hasModGuard(op.Else) || hasModGuard(op.Body) {
			return true
		}
	}
	return false
}

// modGuardPhases collects the constant right-hand sides of the op tree's
// parity guards (rank%2 == part): the exchange parts the protocol covers.
func modGuardPhases(ops []protomc.Op) map[int]bool {
	out := map[int]bool{}
	var guard func(g protomc.Guard)
	guard = func(g protomc.Guard) {
		if g.Kind == protomc.GMod && g.R.Rank == 0 && g.R.P == 0 && len(g.R.Vars) == 0 {
			out[g.R.C] = true
		}
		for _, s := range g.Subs {
			guard(s)
		}
	}
	var walk func(ops []protomc.Op)
	walk = func(ops []protomc.Op) {
		for _, op := range ops {
			if op.Kind == protomc.OpIf {
				guard(op.Cond)
			}
			walk(op.Then)
			walk(op.Else)
			walk(op.Body)
		}
	}
	walk(ops)
	return out
}
