// Package poolflow is the fixture for the path-sensitive sync.Pool
// lifetime rules. It includes the join case a per-branch syntactic tracker
// gets wrong (joinPoisons: a Put in every arm of an if is forgotten at the
// join) and the loop back-edge case it cannot see at all (loopCarried).
package poolflow

import "sync"

var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 64); return &b }}

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(bp *[]byte) { bufPool.Put(bp) }

func useAfterPut() int {
	bp := getBuf()
	putBuf(bp)
	return len(*bp) // want `pooled buffer "bp" used after Put on some path`
}

func doublePut() {
	bp := getBuf()
	putBuf(bp)
	putBuf(bp) // want `pooled buffer "bp" recycled twice: a Put already ran on some path`
}

func aliasAfterPut() int {
	bp := getBuf()
	buf := *bp
	putBuf(bp)
	return len(buf) // want `pooled buffer "buf" used after Put on some path`
}

// joinPoisons is the path-sensitivity case the old per-branch clone
// missed: both arms Put, so the use after the join reads recycled memory
// on every path.
func joinPoisons(ok bool) int {
	bp := getBuf()
	if ok {
		putBuf(bp)
	} else {
		putBuf(bp)
	}
	return len(*bp) // want `pooled buffer "bp" used after Put on some path`
}

// loopCarried flows the Put around the loop's back edge: the second
// iteration reads a buffer the first one recycled.
func loopCarried(n int) {
	bp := getBuf()
	for i := 0; i < n; i++ {
		_ = len(*bp) // want `pooled buffer "bp" used after Put on some path`
		putBuf(bp)   // want `pooled buffer "bp" recycled twice: a Put already ran on some path`
	}
}

// deferDouble: the deferred Put runs at exit, after the conditional
// explicit Put already recycled the buffer on one path.
func deferDouble(ok bool) {
	bp := getBuf()
	defer putBuf(bp) // want `this deferred Put runs after a Put on some path`
	if ok {
		putBuf(bp)
	}
}

func reassigned() int {
	bp := getBuf()
	putBuf(bp)
	bp = getBuf() // whole reassignment revives the variable
	n := len(*bp)
	putBuf(bp)
	return n
}

// branchRevive: the Put is followed by a re-get on the same path, so the
// use after the join is clean on every path.
func branchRevive(ok bool) int {
	bp := getBuf()
	if ok {
		putBuf(bp)
		bp = getBuf()
	}
	n := len(*bp)
	putBuf(bp)
	return n
}

// rangeEach recycles each element exactly once: the range head reassigns
// f every iteration, so the previous iteration's Put must not poison it.
func rangeEach(frags []*[]byte) {
	for i, f := range frags {
		putBuf(f)
		frags[i] = nil
	}
}

func delayedPut() func() {
	bp := getBuf()
	return func() { putBuf(bp) } // closures run later: analyzed with a clean slate
}
