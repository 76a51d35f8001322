package stencil

import (
	"math"

	"netpart/internal/core"
	"netpart/internal/cost"
	"netpart/internal/model"
	"netpart/internal/spmd"
)

// ConvergeResult is the outcome of a run-until-converged execution.
type ConvergeResult struct {
	ElapsedMs  float64
	Grid       [][]float64
	Iterations int
	// FinalDelta is the last global maximum point change.
	FinalDelta float64
	Report     spmd.Report
}

// reduceBytes is the wire size of one convergence contribution (a single
// 8-byte maximum delta).
const reduceBytes = 8

// RunSimUntil executes the distributed stencil until the global maximum
// point change of an iteration falls to tol or maxIters is reached. Each
// iteration ends with a global max-reduction: tasks send their local
// maximum delta to rank 0, which broadcasts the verdict — the
// gather/broadcast reduction pattern layered on the same synchronous
// cycle machinery.
func RunSimUntil(net *model.Network, cfg cost.Config, vec core.Vector, v Variant, n int, tol float64, maxIters int) (ConvergeResult, error) {
	job, err := simJob(net, cfg, vec, n)
	if err != nil {
		return ConvergeResult{}, err
	}
	initial := NewGrid(n)
	res := newResultGrid(n)
	out := ConvergeResult{}
	job.Body = func(t *spmd.Task) {
		s := newSimRank(t, initial, n)
		s.trackDelta = true
		it, delta := 0, math.Inf(1)
		for ; it < maxIters && delta > tol; it++ {
			s.delta = 0
			s.step(v, it)
			delta = s.reduceMax()
		}
		s.gather(res)
		if t.Rank() == 0 {
			out.Iterations, out.FinalDelta = it, delta
		}
	}
	rep, err := spmd.Run(job)
	if err != nil {
		return ConvergeResult{}, err
	}
	if err := res.complete(); err != nil {
		return ConvergeResult{}, err
	}
	out.ElapsedMs = rep.ElapsedMs
	out.Grid = res.rows
	out.Report = rep
	return out, nil
}

// SequentialUntil is the reference: iterate until the maximum point change
// falls to tol (or maxIters), returning the grid and iteration count.
func SequentialUntil(grid [][]float64, tol float64, maxIters int) ([][]float64, int, float64) {
	n := len(grid)
	cur := cloneGrid(grid)
	next := cloneGrid(grid)
	delta := math.Inf(1)
	it := 0
	for ; it < maxIters && delta > tol; it++ {
		delta = 0
		for i := 1; i < n-1; i++ {
			updateRow(next[i], cur[i], cur[i-1], cur[i+1])
			for j := 1; j < n-1; j++ {
				if d := math.Abs(next[i][j] - cur[i][j]); d > delta {
					delta = d
				}
			}
		}
		cur, next = next, cur
	}
	return cur, it, delta
}

// foldDelta folds the change of local row li's interior points, just
// updated into next, into the rank's maximum delta.
func (s *simRank) foldDelta(li int) {
	nr, cr := s.next.row(li), s.cur.row(li)
	for j := 1; j < s.n-1; j++ {
		if d := math.Abs(nr[j] - cr[j]); d > s.delta {
			s.delta = d
		}
	}
}

// reduceMax is the global max-delta reduction: every task sends its local
// maximum to rank 0, which broadcasts the global one.
func (s *simRank) reduceMax() float64 {
	t, nTasks := s.t, s.t.NumTasks()
	if nTasks == 1 {
		return s.delta
	}
	if t.Rank() != 0 {
		t.Send(0, reduceBytes, s.delta)
		return t.Recv(0).(float64)
	}
	global := s.delta
	for src := 1; src < nTasks; src++ {
		if d := t.Recv(src).(float64); d > global {
			global = d
		}
	}
	for dst := 1; dst < nTasks; dst++ {
		t.Send(dst, reduceBytes, global)
	}
	return global
}
