// Package allocfree is the fixture for the interprocedural zero-allocation
// prover: allocfree reports every allocation in a hot function's call
// tree exactly once — a direct site in the annotated body at the site, an
// allocation that arrives THROUGH a call at the call site, with a
// provenance chain down to the originating expression.
package allocfree

import "fmt"

type table struct {
	rows []float64
	buf  []float64
}

// buildBuf allocates. On its own that is fine — the finding belongs to hot
// callers that reach it.
func buildBuf(n int) []float64 {
	return make([]float64, n)
}

// sumVia is a clean pass-through, so the provenance chain is two hops.
func sumVia(n int) float64 {
	tmp := buildBuf(n)
	var s float64
	for _, v := range tmp {
		s += v
	}
	return s
}

// hotDirect: a direct site in the hot body is reported at the site.
//
//netpart:hotpath
func (t *table) hotDirect(n int) []float64 {
	return make([]float64, n) // want `hot path .*hotDirect reaches an allocation: make allocates`
}

// hotCalls reaches buildBuf's make through sumVia: one allocfree finding
// at the call site, carrying the whole chain.
//
//netpart:hotpath
func (t *table) hotCalls(n int) float64 {
	return sumVia(n) // want `hot path .*hotCalls reaches an allocation: .*sumVia → .*buildBuf → make allocates`
}

// hotGuarded only allocates under the sanctioned cap guard (first-use
// buffer growth): clean.
//
//netpart:hotpath
func (t *table) hotGuarded(n int) {
	if cap(t.buf) < n {
		t.buf = buildBuf(n)
	}
	t.buf = t.buf[:n]
}

// hotCheck constructs an error only on the failure return: clean.
//
//netpart:hotpath
func (t *table) hotCheck(n int) error {
	if n < 0 {
		return fmt.Errorf("allocfree: negative length %d", n)
	}
	return nil
}

// chaosPath allocates, but the site carries a scoped waiver: it must not
// propagate into any hot caller's summary.
func chaosPath(n int) []float64 {
	return make([]float64, n) //nolint:netpart/allocfree reason=fixture stand-in for a fault-injection-only path
}

// hotWaived calls the waived allocator: no finding.
//
//netpart:hotpath
func (t *table) hotWaived(n int) {
	t.buf = chaosPath(n)
}

// hotScoped: a //nolint:netpart/allocfree on the hot body's own site
// waives the direct site like any other: no finding.
//
//netpart:hotpath
func (t *table) hotScoped(n int) []float64 {
	return make([]float64, n) //nolint:netpart/allocfree reason=fixture stand-in for a waived direct site
}

// walk and descend are mutually recursive; the SCC fixpoint must converge
// and still attribute descend's allocation to hot callers of walk.
func walk(depth int) int {
	if depth == 0 {
		return 0
	}
	return descend(depth)
}

func descend(depth int) int {
	p := new(int)
	*p = depth
	return walk(*p-1) + *p
}

//netpart:hotpath
func (t *table) hotRecurse(depth int) int {
	return walk(depth) // want `hot path .*hotRecurse reaches an allocation: .*walk → .*descend → new allocates`
}

// sizer has exactly one in-module implementation, so the type-set
// approximation resolves the interface call to boxy.size.
type sizer interface{ size(n int) []float64 }

type boxy struct{}

func (boxy) size(n int) []float64 { return make([]float64, n) }

//netpart:hotpath
func (t *table) hotIface(s sizer, n int) {
	t.buf = s.size(n) // want `hot path .*hotIface reaches an allocation: .*size → make allocates`
}

// cloneRow copies through a nil-converted slice: every call grows a fresh
// backing array.
func cloneRow(xs []float64) []float64 {
	return append([]float64(nil), xs...)
}

// hotNilConv copies through a nil-converted slice in the hot body itself.
//
//netpart:hotpath
func (t *table) hotNilConv() {
	t.rows = append([]float64(nil), t.buf...) // want `hot path .*hotNilConv reaches an allocation: append to a fresh nil-converted slice allocates`
}

// hotViaNilConv reaches cloneRow's nil-converted append through a call.
//
//netpart:hotpath
func (t *table) hotViaNilConv() {
	t.rows = cloneRow(t.buf) // want `hot path .*hotViaNilConv reaches an allocation: .*cloneRow → append to a fresh nil-converted slice allocates`
}
