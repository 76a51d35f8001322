// Package stencil implements the paper's evaluation application: a dense
// N×N iterative five-point stencil with block-row decomposition (the PDU is
// one grid row) over a 1-D communication topology, in the two variants of
// Section 6.0 — STEN-1 (communication not overlapped with computation) and
// STEN-2 (border transmission overlapped with the grid update).
//
// The same numerical kernel backs the sequential reference and the
// distributed variants, so distributed runs can be verified bit-exactly
// against the reference. SimElapsed runs the simulated schedule without
// the numerics, for callers that need only the elapsed time.
package stencil

import (
	"errors"
	"fmt"

	"netpart/internal/core"
	"netpart/internal/cost"
	"netpart/internal/model"
	"netpart/internal/obs"
	"netpart/internal/simnet"
	"netpart/internal/spmd"
	"netpart/internal/topo"
)

// Variant selects the implementation.
type Variant int

// The two implementations of Section 6.0.
const (
	STEN1 Variant = iota // sends, blocking receives, then compute
	STEN2                // async sends, interior compute, receives, border compute
)

// String returns "STEN-1" or "STEN-2".
func (v Variant) String() string {
	if v == STEN2 {
		return "STEN-2"
	}
	return "STEN-1"
}

// BytesPerPoint is the wire size of one grid point (the paper assumes
// 4-byte grid points, giving the 4N communication complexity).
const BytesPerPoint = 4

// OpsPerPoint is the per-point operation count of the five-point update
// (four adds and one multiply), giving the 5N computational complexity.
const OpsPerPoint = 5

// Annotations returns the Section 4.0 callback annotations for an N×N
// stencil of the given variant running iters cycles.
func Annotations(n int, v Variant, iters int) *core.Annotations {
	overlap := ""
	if v == STEN2 {
		overlap = "grid-update"
	}
	return &core.Annotations{
		Name:    v.String(),
		NumPDUs: func() int { return n },
		Compute: []core.ComputationPhase{{
			Name:             "grid-update",
			ComplexityPerPDU: func() float64 { return OpsPerPoint * float64(n) },
			Class:            model.OpFloat,
		}},
		Comm: []core.CommunicationPhase{{
			Name:            "border-exchange",
			Topology:        "1-D",
			BytesPerMessage: func(float64) float64 { return BytesPerPoint * float64(n) },
			Overlap:         overlap,
		}},
		Cycles: iters,
		// One row is N 4-byte points; declaring it lets the estimator
		// report T_startup for the initial grid distribution.
		StartupBytesPerPDU: BytesPerPoint * float64(n),
	}
}

// ScatterSim measures the initial grid distribution on the simulated
// network: the first task owns the whole grid and sends every other task
// its row block in one batched message. It returns the elapsed virtual
// time — the quantity the paper's Table 2 timings exclude and its
// amortization argument bounds.
func ScatterSim(net *model.Network, cfg cost.Config, vec core.Vector, n int) (float64, error) {
	job, err := simJob(net, cfg, vec, n)
	if err != nil {
		return 0, err
	}
	job.Body = func(t *spmd.Task) {
		if t.Rank() == 0 {
			for dst := 1; dst < t.NumTasks(); dst++ {
				t.Send(dst, BytesPerPoint*n*vec[dst], nil)
			}
			return
		}
		t.Recv(0)
	}
	rep, err := spmd.Run(job)
	if err != nil {
		return 0, err
	}
	return rep.ElapsedMs, nil
}

// simJob validates a partition vector against the problem size and the
// configuration and returns the simulated job skeleton every stencil run
// shares: one task per processor of cfg (contiguous 1-D placement,
// fastest cluster first), rows assigned by vec. Callers add the body and
// any observability.
func simJob(net *model.Network, cfg cost.Config, vec core.Vector, n int) (spmd.Job, error) {
	if vec.Sum() != n {
		return spmd.Job{}, fmt.Errorf("stencil: vector sums to %d, want N=%d rows", vec.Sum(), n)
	}
	names, counts := cfg.Active()
	pl, err := topo.Contiguous(names, counts)
	if err != nil {
		return spmd.Job{}, err
	}
	if pl.NumTasks() != len(vec) {
		return spmd.Job{}, errors.New("stencil: configuration and vector disagree on task count")
	}
	return spmd.Job{Net: net, Placement: pl, Vector: vec, Topology: topo.OneD{}}, nil
}

// NewGrid returns the deterministic N×N initial condition used throughout
// the experiments: a hot (100.0) north edge, cold elsewhere.
func NewGrid(n int) [][]float64 {
	g := make([][]float64, n)
	cells := make([]float64, n*n)
	for i := range g {
		g[i], cells = cells[:n], cells[n:]
	}
	for j := 0; j < n; j++ {
		g[0][j] = 100.0
	}
	return g
}

// cloneGrid deep-copies a grid.
func cloneGrid(g [][]float64) [][]float64 {
	out := make([][]float64, len(g))
	cells := make([]float64, len(g)*len(g))
	for i := range g {
		out[i], cells = cells[:len(g)], cells[len(g):]
		copy(out[i], g[i])
	}
	return out
}

// Sequential runs iters Jacobi iterations on a copy of grid and returns the
// result. It is the correctness reference for the distributed variants,
// running the cache-blocked flat kernel (grid.go) over two flat buffers.
func Sequential(grid [][]float64, iters int) [][]float64 {
	n := len(grid)
	cur := flatten(grid)
	next := append([]float64(nil), cur...)
	for it := 0; it < iters; it++ {
		jacobiIter(next, cur, n)
		cur, next = next, cur
	}
	return rowsView(cur, n, n)
}

// SimResult is the outcome of one simulated distributed execution.
type SimResult struct {
	// ElapsedMs is the virtual elapsed time of the whole run (10-iteration
	// Table 2 measurements exclude initial distribution, as does this).
	ElapsedMs float64
	// Grid is the assembled final grid.
	Grid [][]float64
	// Report carries substrate statistics.
	Report spmd.Report
}

// RunSim executes the distributed stencil on the simulated network: one
// task per processor of the configuration (contiguous 1-D placement,
// fastest cluster first), rows assigned by the partition vector, iters
// Jacobi iterations. The final grid is assembled and returned for
// verification against Sequential.
func RunSim(net *model.Network, cfg cost.Config, vec core.Vector, v Variant, n, iters int) (SimResult, error) {
	return RunSimMonitored(net, cfg, vec, v, n, iters, nil, nil, nil)
}

// RunSimMonitored is RunSim with observability attached: per-cycle and
// per-message runtime metrics (the spmd.Metric* names) recorded into m,
// one span per task per cycle into rec for Chrome trace export, and a
// per-cycle subscription — sink receives every task's cycle duration in
// virtual-time milliseconds as it completes, the hookup point for the
// drift monitor (internal/obs/drift). Any of the three may be nil.
func RunSimMonitored(net *model.Network, cfg cost.Config, vec core.Vector, v Variant, n, iters int, m *obs.Registry, rec *obs.Recorder, sink obs.CycleSink) (SimResult, error) {
	job, err := simJob(net, cfg, vec, n)
	if err != nil {
		return SimResult{}, err
	}
	initial := NewGrid(n)
	res := newResultGrid(n)
	job.Metrics, job.Trace, job.Cycles = m, rec, sink
	job.Body = func(t *spmd.Task) {
		s := newSimRank(t, initial, n)
		for it := 0; it < iters; it++ {
			s.step(v, it)
		}
		s.gather(res)
	}
	rep, err := spmd.Run(job)
	if err != nil {
		return SimResult{}, err
	}
	if err := res.complete(); err != nil {
		return SimResult{}, err
	}
	return SimResult{ElapsedMs: rep.ElapsedMs, Grid: res.rows, Report: rep}, nil
}

// SimElapsed runs the distributed stencil's schedule only and returns the
// elapsed virtual time. Simulated time depends on the schedule alone —
// rowOps(g, n) operations per row and BytesPerPoint·n bytes per border
// message — never on grid values, so the run charges the same compute
// batches, sends the same message sizes (without payloads), receives and
// ends cycles in the same order as RunSim, and its elapsed time equals
// RunSim's bit for bit, without allocating or updating a grid. opts
// configure the simulator (e.g. simnet.WithJitter). Use RunSim when the
// grid itself is wanted.
func SimElapsed(net *model.Network, cfg cost.Config, vec core.Vector, v Variant, n, iters int, opts ...simnet.Option) (float64, error) {
	job, err := simJob(net, cfg, vec, n)
	if err != nil {
		return 0, err
	}
	job.SimOptions = opts
	job.Body = func(t *spmd.Task) {
		s := newSimRank(t, nil, n)
		for it := 0; it < iters; it++ {
			s.step(v, it)
		}
	}
	rep, err := spmd.Run(job)
	if err != nil {
		return 0, err
	}
	return rep.ElapsedMs, nil
}

// rowOps returns the operations charged for updating one global row: the
// five-point update for interior rows, a copy for boundary rows.
func rowOps(globalRow, n int) float64 {
	if globalRow == 0 || globalRow == n-1 {
		return float64(n) // boundary rows are only copied
	}
	return OpsPerPoint * float64(n)
}

// simRank is one task of a simulated run: its band of the grid and the
// simulator's exchange and compute step for the shared cycle (cycle.go).
type simRank struct {
	rankGrid
	t *spmd.Task
	// iter is the iteration in progress, for slowdown.
	iter int
	// slowdown, when non-nil, scales each row's charged operations: a
	// multiplicative compute-time factor for (rank, iteration).
	slowdown func(rank, iter int) float64
	// computeMs accumulates virtual compute time for the repart planner.
	computeMs float64
	// trackDelta makes compute fold each updated point's change into
	// delta, the local term of RunSimUntil's max-delta reduction.
	trackDelta bool
	delta      float64
}

// newSimRank loads the task's rows of initial; a nil initial grid runs
// the schedule only (SimElapsed).
func newSimRank(t *spmd.Task, initial [][]float64, n int) *simRank {
	return &simRank{rankGrid: newRankGrid(initial, n, t.PDUs(), t.PDUOffset()), t: t}
}

// step runs iteration it through the shared cycle and ends the task's
// SPMD cycle.
func (s *simRank) step(v Variant, it int) {
	s.iter = it
	_ = s.cycle(v, it, s.exchange, s.compute) // the simulated exchange cannot fail
	s.t.EndCycle()
}

// exchange is the simulator's halo exchange, in the paper's async-send
// order: part 0 posts both border sends, part 1 receives both ghost rows.
// Table 2, Fig. 3 and perfbench's golden file pin the virtual times this
// order produces, so it must not change. The byte count is charged
// either way; payloads are copies, because the simulator delivers them at
// a later virtual time, after this task may have swapped and begun
// overwriting, and are nil in schedule-only mode.
func (s *simRank) exchange(part, _ int) error {
	north, south := s.t.Rank()-1, s.t.Rank()+1
	hasNorth, hasSouth := north >= 0, south < s.t.NumTasks()
	if part == 0 {
		if hasNorth {
			s.send(north, 1)
		}
		if hasSouth {
			s.send(south, s.rows)
		}
		return nil
	}
	if hasNorth {
		s.recv(north, 0)
	}
	if hasSouth {
		s.recv(south, s.rows+1)
	}
	return nil
}

func (s *simRank) send(dst, li int) {
	var payload interface{}
	if s.cur.cells != nil {
		payload = append([]float64(nil), s.cur.row(li)...)
	}
	s.t.Send(dst, BytesPerPoint*s.n, payload)
}

func (s *simRank) recv(src, li int) {
	payload := s.t.Recv(src)
	if s.cur.cells != nil {
		copy(s.cur.row(li), payload.([]float64))
	}
}

// compute charges local rows lo..hi as one virtual-time batch, updating
// them too unless the run is schedule-only. The charges are made per row
// in row order even without numerics: the batch's accumulated time
// depends on the summation order.
func (s *simRank) compute(lo, hi int) {
	factor := 1.0
	if s.slowdown != nil {
		factor = s.slowdown(s.t.Rank(), s.iter)
	}
	start := s.t.NowMs()
	cb := s.t.BeginCompute()
	for li := lo; li <= hi; li++ {
		if s.cur.cells != nil {
			s.update(li, li, 1, nil)
			if s.trackDelta {
				s.foldDelta(li)
			}
		}
		cb.Ops(rowOps(s.off+li-1, s.n)*factor, model.OpFloat)
	}
	cb.Done()
	s.computeMs += s.t.NowMs() - start
}
