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
	return RunSimObserved(net, cfg, vec, v, n, iters, nil, nil)
}

// RunSimObserved is RunSim with observability attached: per-cycle and
// per-message runtime metrics (the spmd.Metric* names) recorded into m,
// and one span per task per cycle into rec for Chrome trace export. Either
// may be nil to disable.
func RunSimObserved(net *model.Network, cfg cost.Config, vec core.Vector, v Variant, n, iters int, m *obs.Registry, rec *obs.Recorder) (SimResult, error) {
	return RunSimMonitored(net, cfg, vec, v, n, iters, m, rec, nil)
}

// RunSimMonitored is RunSimObserved plus a per-cycle subscription: sink
// (when non-nil) receives every task's cycle and border-exchange duration
// in virtual-time milliseconds as it completes — the hookup point for the
// drift monitor (internal/obs/drift).
func RunSimMonitored(net *model.Network, cfg cost.Config, vec core.Vector, v Variant, n, iters int, m *obs.Registry, rec *obs.Recorder, sink obs.CycleSink) (SimResult, error) {
	job, err := simJob(net, cfg, vec, n)
	if err != nil {
		return SimResult{}, err
	}
	initial := NewGrid(n)
	res := newResultGrid(n)
	job.Metrics, job.Trace, job.Cycles = m, rec, sink
	job.Body = func(t *spmd.Task) {
		runTask(t, initial, res, v, n, iters)
	}
	rep, err := spmd.Run(job)
	if err != nil {
		return SimResult{}, err
	}
	for i, row := range res.rows {
		if row == nil {
			return SimResult{}, fmt.Errorf("stencil: row %d not produced", i)
		}
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
		runTask(t, nil, nil, v, n, iters)
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

// runTask is the per-rank body shared by STEN-1 and STEN-2. The task owns
// global rows [off, off+rows); cur/next are flat blocks with one ghost row
// on each side at local indices 0 and rows+1. With a nil initial grid the
// task runs its schedule only (SimElapsed): every charge, send size,
// receive and cycle boundary is the same, in the same order, but there are
// no blocks, no row updates and no payloads, and res is not written.
func runTask(t *spmd.Task, initial [][]float64, res *resultGrid, v Variant, n, iters int) {
	rows := t.PDUs()
	off := t.PDUOffset()
	numeric := initial != nil
	var cur, next block
	if numeric {
		cur, next = newBlock(rows, n), newBlock(rows, n)
		for i := 0; i < rows; i++ {
			copy(cur.row(i+1), initial[off+i])
		}
		copy(next.cells, cur.cells)
	}
	north, south := t.Rank()-1, t.Rank()+1
	hasNorth, hasSouth := north >= 0, south < t.NumTasks()
	msgBytes := BytesPerPoint * n

	// computeRows updates local rows [lo, hi] (1-based local indices),
	// batching the per-row virtual-time charges into one scheduler trip.
	// The charges are made per row in row order even without numerics:
	// the batch's accumulated time depends on the summation order.
	computeRows := func(lo, hi int) {
		cb := t.BeginCompute()
		for li := lo; li <= hi; li++ {
			g := off + li - 1 // global row
			if numeric {
				if g == 0 || g == n-1 {
					copy(next.row(li), cur.row(li))
				} else {
					updateRow(next.row(li), cur.row(li), cur.row(li-1), cur.row(li+1))
				}
			}
			cb.Ops(rowOps(g, n), model.OpFloat)
		}
		cb.Done()
	}
	// sendRow sends local row li to dst. Payloads are copies: the sim
	// delivers them at a later virtual time, after this task may have
	// swapped and begun overwriting. The byte count is charged either way.
	sendRow := func(dst, li int) {
		var payload interface{}
		if numeric {
			payload = append([]float64(nil), cur.row(li)...)
		}
		t.Send(dst, msgBytes, payload)
	}
	recvRow := func(src, li int) {
		payload := t.Recv(src)
		if numeric {
			copy(cur.row(li), payload.([]float64))
		}
	}
	sendBorders := func() {
		if hasNorth {
			sendRow(north, 1)
		}
		if hasSouth {
			sendRow(south, rows)
		}
	}
	recvGhosts := func() {
		if hasNorth {
			recvRow(north, 0)
		}
		if hasSouth {
			recvRow(south, rows+1)
		}
	}

	for it := 0; it < iters; it++ {
		switch v {
		case STEN1:
			// Communication phase (async sends then blocking receives),
			// then the computation phase.
			sendBorders()
			recvGhosts()
			computeRows(1, rows)
		case STEN2:
			// Border transmission overlapped with the interior update:
			// rows 2..rows-1 need no ghost data.
			sendBorders()
			if rows > 2 {
				computeRows(2, rows-1)
			}
			recvGhosts()
			computeRows(1, 1)
			if rows > 1 {
				computeRows(rows, rows)
			}
		}
		cur, next = next, cur
		t.EndCycle()
	}
	if numeric {
		for i := 0; i < rows; i++ {
			copy(res.take(off+i), cur.row(i+1))
		}
	}
}
