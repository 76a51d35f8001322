// Package hotpath is the fixture for allocfree's direct-site allocation rules.
package hotpath

import "fmt"

type codec struct {
	scratch []float64
}

// hotSum allocates a fresh buffer on every call.
//
//netpart:hotpath
func (c *codec) hotSum(xs []float64) float64 {
	tmp := make([]float64, len(xs)) // want `hot path .*hotSum reaches an allocation: make allocates \(hotpath\.go:14\)`
	copy(tmp, xs)
	var s float64
	for _, v := range tmp {
		s += v
	}
	return s
}

// hotLog formats on the hot path.
//
//netpart:hotpath
func (c *codec) hotLog(v float64) {
	fmt.Println("value", v) // want `hot path .*hotLog reaches an allocation: call to fmt\.Println \(stdlib`
}

// hotGrow appends through an unsized local.
//
//netpart:hotpath
func (c *codec) hotGrow(xs []float64) {
	var local []float64
	for _, v := range xs {
		local = append(local, v) // want `hot path .*hotGrow reaches an allocation: append to unsized local slice local grows`
	}
	c.scratch = local
}

// hotClosure returns a capturing closure.
//
//netpart:hotpath
func (c *codec) hotClosure() func() float64 {
	total := 0.0
	return func() float64 { // want `hot path .*hotClosure reaches an allocation: closure capturing total allocates`
		return total
	}
}

// hotBox takes the address of a composite literal.
//
//netpart:hotpath
func (c *codec) hotBox() *codec {
	return &codec{} // want `hot path .*hotBox reaches an allocation: &composite literal escapes to the heap`
}

// hotGuarded allocates only inside the two sanctioned guards: no findings.
//
//netpart:hotpath
func (c *codec) hotGuarded(xs []float64) []float64 {
	if cap(c.scratch) < len(xs) {
		c.scratch = make([]float64, 0, len(xs))
	}
	buf := c.scratch[:0]
	buf = append(buf, xs...)
	return buf
}

// hotLazy initializes lazily behind a nil guard: no findings.
//
//netpart:hotpath
func (c *codec) hotLazy() []float64 {
	if c.scratch == nil {
		c.scratch = make([]float64, 0, 8)
	}
	return c.scratch
}

// hotErr builds its error only on the failure return: no findings.
//
//netpart:hotpath
func (c *codec) hotErr(n int) error {
	if n < 0 {
		return fmt.Errorf("negative %d", n)
	}
	return nil
}

// cold is unannotated; allocation is fine here.
func (c *codec) cold() []float64 {
	return make([]float64, 16)
}

// hotFrameGrow grows a caller-owned frame buffer in place behind a
// capacity guard (the wire-codec idiom): no findings.
//
//netpart:hotpath
func (c *codec) hotFrameGrow(dst []byte, payload int) []byte {
	off := len(dst)
	if need := off + payload; cap(dst) < need {
		grown := make([]byte, off, need)
		copy(grown, dst)
		dst = grown
	}
	return dst[:off+payload]
}

// hotFreeListPop reuses pooled buffers, allocating only when the pool is
// empty or the popped buffer is too small (the transport free-list idiom):
// no findings.
//
//netpart:hotpath
func (c *codec) hotFreeListPop(free *[][]float64, n int) []float64 {
	if len(*free) == 0 {
		return make([]float64, n)
	}
	b := (*free)[len(*free)-1]
	*free = (*free)[:len(*free)-1]
	if cap(b) < n {
		return make([]float64, n)
	}
	return b[:n]
}

// hotUnguardedBranch allocates under a condition that inspects neither
// length nor capacity — the branch is still hot.
//
//netpart:hotpath
func (c *codec) hotUnguardedBranch(n int) []float64 {
	if n > 8 {
		return make([]float64, n) // want `hot path .*hotUnguardedBranch reaches an allocation: make allocates`
	}
	return nil
}
