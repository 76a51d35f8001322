// Package poollifetime is the fixture for poolflow's accessor rule: direct
// sync.Pool Get/Put calls belong inside get*/put* accessors, where the
// box/length/zeroing conventions live. The temporal lifetime rules
// (use-after-put, double-put) are exercised by the poolflow fixture.
package poollifetime

import "sync"

var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 64); return &b }}

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(bp *[]byte) { bufPool.Put(bp) }

func directGet() *[]byte {
	return bufPool.Get().(*[]byte) // want `direct sync\.Pool\.Get outside a get\*/put\* accessor`
}

func directPut(bp *[]byte) {
	bufPool.Put(bp) // want `direct sync\.Pool\.Put outside a get\*/put\* accessor`
}

func throughAccessors() int {
	bp := getBuf()
	n := len(*bp)
	putBuf(bp)
	return n
}
