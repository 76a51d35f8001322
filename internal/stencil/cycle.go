package stencil

import "netpart/internal/repart"

// This file holds the one per-rank STEN-1/STEN-2 cycle every stencil
// runtime runs — the simulated RunSim/SimElapsed, RunSimAdaptive and
// RunSimUntil, and the live RunLive*, RunLiveAdaptive and RunLiveFT. A
// runtime supplies only the two things that differ between them: the
// halo exchange (simulated async sends, the mmps odd-even exchange, or
// the fault-tolerant envelope exchange) and the compute step (per-row
// operations charged in virtual time, or row updates executed for real).

// rankGrid is one rank's band of the grid: global rows [off, off+rows)
// held in two flat blocks (grid.go) with a ghost row on each side, at
// local indices 0 and rows+1. Without an initial grid the blocks stay
// empty and the band carries only its shape: the schedule-only mode of
// SimElapsed.
type rankGrid struct {
	n, rows, off int
	cur, next    block
}

// newRankGrid loads global rows [off, off+rows) of initial into a fresh
// band; a nil initial grid gives a shape-only band.
func newRankGrid(initial [][]float64, n, rows, off int) rankGrid {
	g := rankGrid{n: n, rows: rows, off: off}
	if initial == nil {
		return g
	}
	g.cur, g.next = newBlock(rows, n), newBlock(rows, n)
	for i := 0; i < rows; i++ {
		copy(g.cur.row(i+1), initial[off+i])
	}
	copy(g.next.cells, g.cur.cells)
	return g
}

// cycle advances the band by one iteration. It is the only place the
// paper's two variants are written down:
//
//	exchange part 0 → (STEN-2: interior rows) → exchange part 1 → remaining rows → swap
//
// STEN-1 updates every row once both parts are done. STEN-2 overlaps the
// interior update — rows 2..rows-1 read no ghost row — with the exchange,
// and updates the two border rows once the ghosts are in. compute(lo, hi)
// covers local rows lo..hi in one call, which the simulator charges as
// one compute batch. The exchange decides what a part does; see
// simRank.exchange, liveRank.haloCycles and ftTask.exchange.
func (g *rankGrid) cycle(v Variant, it int, exchange func(part, it int) error, compute func(lo, hi int)) error {
	if err := exchange(0, it); err != nil {
		return err
	}
	if v == STEN2 && g.rows > 2 {
		compute(2, g.rows-1)
	}
	if err := exchange(1, it); err != nil {
		return err
	}
	if v == STEN2 {
		compute(1, 1)
		if g.rows > 1 {
			compute(g.rows, g.rows)
		}
	} else {
		compute(1, g.rows)
	}
	g.cur, g.next = g.next, g.cur
	return nil
}

// update computes local rows lo..hi for real: boundary rows of the grid
// are copied, interior rows get the five-point update, repeated reps-1
// more times into scratch so a rank can emulate a proportionally slower
// processor.
func (g *rankGrid) update(lo, hi, reps int, scratch []float64) {
	for li := lo; li <= hi; li++ {
		if gr := g.off + li - 1; gr == 0 || gr == g.n-1 {
			copy(g.next.row(li), g.cur.row(li))
			continue
		}
		updateRow(g.next.row(li), g.cur.row(li), g.cur.row(li-1), g.cur.row(li+1))
		for extra := 1; extra < reps; extra++ {
			updateRow(scratch, g.cur.row(li), g.cur.row(li-1), g.cur.row(li+1))
		}
	}
}

// gather copies the band's rows into the assembled result.
func (g *rankGrid) gather(res *resultGrid) {
	for i := 0; i < g.rows; i++ {
		copy(res.take(g.off+i), g.cur.row(i+1))
	}
}

// migrate moves the band's rows to their owners under plan.New through
// the shared migration protocol. A plan that keeps the vector moves
// nothing.
func (g *rankGrid) migrate(lk repart.Link, plan repart.Plan) error {
	if !plan.Changed() {
		return nil
	}
	own := repart.NewOwners(plan.New)
	rows, off := own.Count(lk.Rank()), own.First(lk.Rank())
	cur, next := newBlock(rows, g.n), newBlock(rows, g.n)
	_, _, err := repart.Migrator{Width: g.n}.Migrate(lk, plan.Old, plan.New,
		func(gr int) []float64 { return g.cur.row(gr - g.off + 1) },
		func(gr int, row []float64) { copy(cur.row(gr-off+1), row) })
	if err != nil {
		return err
	}
	g.rows, g.off, g.cur, g.next = rows, off, cur, next
	return nil
}
