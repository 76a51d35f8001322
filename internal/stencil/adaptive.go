package stencil

import (
	"fmt"

	"netpart/internal/core"
	"netpart/internal/cost"
	"netpart/internal/faults"
	"netpart/internal/model"
	"netpart/internal/obs"
	"netpart/internal/repart"
	"netpart/internal/simnet"
	"netpart/internal/spmd"
)

// AdaptiveOptions configures RunSimAdaptive, the paper's §7 future-work
// strategy of dynamically recomputing the partition vector when processor
// sharing causes load imbalance.
type AdaptiveOptions struct {
	// RebalanceEvery recomputes the partition vector every R iterations
	// from measured per-task compute times (0 disables, reproducing the
	// static RunSim behavior).
	RebalanceEvery int
	// Planner parameterizes the repartitioning search (migration cost,
	// amortization horizon, hysteresis). The zero value load-balances with
	// free migration, matching the historical behavior.
	Planner repart.PlannerConfig
	// Slowdown injects external load: a multiplicative compute-time factor
	// for (rank, iteration). Nil means none.
	Slowdown func(rank, iter int) float64
	// Metrics, when non-nil, receives the spmd runtime metrics plus
	// rebalance counters (adaptive.rebalances, adaptive.migrated_rows)
	// and the engine's repart.* series.
	Metrics *obs.Registry
	// Trace, when non-nil, receives per-cycle spans for Chrome export and
	// one "repart" event per planning decision.
	Trace *obs.Recorder
	// Observer, when non-nil, receives repart decisions as EvRepartPlan
	// search events.
	Observer core.Observer
	// SimOptions configure the underlying simulator (jitter, fault
	// injection, message observers).
	SimOptions []simnet.Option
}

// AdaptiveResult extends SimResult with rebalancing statistics.
type AdaptiveResult struct {
	SimResult
	// Rebalances counts vector recomputations that changed the vector.
	Rebalances int
	// MigratedRows counts grid rows that changed owners.
	MigratedRows int
	// FinalVector is the partition vector after the last rebalance.
	FinalVector core.Vector
	// Plans is the ordered decision sequence rank 0 took (keeps included).
	// Deterministic under the virtual-time simulator: the golden tests
	// compare rendered plans byte-for-byte across runs and worker counts.
	Plans []repart.Plan
}

// RunSimAdaptive executes the distributed stencil like RunSim but
// periodically repartitions through the internal/repart engine: every R
// iterations the tasks report their measured compute times to rank 0,
// which runs the incremental restreaming planner and broadcasts the
// decision; tasks then migrate the actual grid rows to their new owners
// before continuing. The final grid remains bit-exact with the sequential
// reference regardless of how rows move.
func RunSimAdaptive(net *model.Network, cfg cost.Config, vec core.Vector, v Variant, n, iters int, opts AdaptiveOptions) (AdaptiveResult, error) {
	job, err := simJob(net, cfg, vec, n)
	if err != nil {
		return AdaptiveResult{}, err
	}
	initial := NewGrid(n)
	res := newResultGrid(n)
	out := AdaptiveResult{FinalVector: append(core.Vector(nil), vec...)}
	eng := &repart.Engine{
		Planner:  repart.NewPlanner(opts.Planner),
		Metrics:  opts.Metrics,
		Trace:    opts.Trace,
		Observer: opts.Observer,
	}
	job.Metrics, job.Trace, job.SimOptions = opts.Metrics, opts.Trace, opts.SimOptions
	job.Body = func(t *spmd.Task) {
		runAdaptiveTask(t, eng, initial, res, v, n, iters, opts, &out)
	}
	rep, err := spmd.Run(job)
	if err != nil {
		return AdaptiveResult{}, err
	}
	for i, row := range res.rows {
		if row == nil {
			return AdaptiveResult{}, fmt.Errorf("stencil: row %d not produced", i)
		}
	}
	opts.Metrics.Counter("adaptive.rebalances").Add(int64(out.Rebalances))
	opts.Metrics.Counter("adaptive.migrated_rows").Add(int64(out.MigratedRows))
	out.SimResult = SimResult{ElapsedMs: rep.ElapsedMs, Grid: res.rows, Report: rep}
	return out, nil
}

// RunSimFaulty executes the simulated stencil under a fault schedule.
// Packet faults are injected below the simulator's reliability layer —
// drops cost retransmission round-trips and delays stretch delivery, but
// messages still arrive intact and in order — and slowdown faults stretch
// compute times, composing with any Slowdown already in opts. Crashes are
// not meaningful under the virtual-time simulator; failure recovery
// belongs to the live runtime (RunLiveFT). retransmitMs is the simulated
// retransmission timeout a dropped packet costs.
func RunSimFaulty(net *model.Network, cfg cost.Config, vec core.Vector, v Variant, n, iters int, inj faults.Injector, retransmitMs float64, opts AdaptiveOptions) (AdaptiveResult, error) {
	if inj != nil {
		opts.SimOptions = append(append([]simnet.Option(nil), opts.SimOptions...),
			simnet.WithFaultInjector(inj, retransmitMs))
		injected := faults.SlowdownFunc(inj)
		if base := opts.Slowdown; base != nil {
			opts.Slowdown = func(rank, iter int) float64 {
				return base(rank, iter) * injected(rank, iter)
			}
		} else {
			opts.Slowdown = injected
		}
	}
	return RunSimAdaptive(net, cfg, vec, v, n, iters, opts)
}

// owners aliases the repart package's prefix-sum ownership index, the
// shared vocabulary of every migration path.
type owners = repart.Owners

func newOwners(vec core.Vector) owners { return repart.NewOwners(vec) }

// simLink adapts a virtual-time task handle to the repart protocol's
// transport surface. Sends are charged at the encoded byte size.
type simLink struct{ t *spmd.Task }

func (l simLink) Rank() int { return l.t.Rank() }
func (l simLink) Size() int { return l.t.NumTasks() }
func (l simLink) Send(dst int, data []byte) error {
	l.t.Send(dst, len(data), data)
	return nil
}
func (l simLink) Recv(src int) ([]byte, error) {
	buf, ok := l.t.Recv(src).([]byte)
	if !ok {
		return nil, fmt.Errorf("stencil: unexpected payload type on repart channel")
	}
	return buf, nil
}

// runAdaptiveTask is the per-rank body: the usual STEN-1/STEN-2 cycle with
// injected slowdown, plus the repart engine's gather → plan → broadcast →
// migrate round every R iterations.
func runAdaptiveTask(t *spmd.Task, eng *repart.Engine, initial [][]float64, res *resultGrid, v Variant, n, iters int, opts AdaptiveOptions, out *AdaptiveResult) {
	rank, nTasks := t.Rank(), t.NumTasks()
	rows := t.PDUs()
	off := t.PDUOffset()

	// Local state: flat blocks, data rows at local indices 1..rows with
	// ghost rows 0 and rows+1.
	cur, next := newBlock(rows, n), newBlock(rows, n)
	for i := 0; i < rows; i++ {
		copy(cur.row(i+1), initial[off+i])
	}
	copy(next.cells, cur.cells)

	msgBytes := BytesPerPoint * n
	windowComputeMs := 0.0
	mig := repart.Migrator{Width: n}

	computeRows := func(lo, hi int, iter int) {
		factor := 1.0
		if opts.Slowdown != nil {
			factor = opts.Slowdown(rank, iter)
		}
		start := t.NowMs()
		cb := t.BeginCompute()
		for li := lo; li <= hi; li++ {
			g := off + li - 1
			if g == 0 || g == n-1 {
				copy(next.row(li), cur.row(li))
			} else {
				updateRow(next.row(li), cur.row(li), cur.row(li-1), cur.row(li+1))
			}
			cb.Ops(rowOps(g, n)*factor, model.OpFloat)
		}
		cb.Done()
		windowComputeMs += t.NowMs() - start
	}
	sendBorders := func() {
		if rank > 0 {
			t.Send(rank-1, msgBytes, append([]float64(nil), cur.row(1)...))
		}
		if rank < nTasks-1 {
			t.Send(rank+1, msgBytes, append([]float64(nil), cur.row(rows)...))
		}
	}
	recvGhosts := func() {
		if rank > 0 {
			copy(cur.row(0), t.Recv(rank-1).([]float64))
		}
		if rank < nTasks-1 {
			copy(cur.row(rows+1), t.Recv(rank+1).([]float64))
		}
	}

	for iter := 0; iter < iters; iter++ {
		switch v {
		case STEN1:
			sendBorders()
			recvGhosts()
			computeRows(1, rows, iter)
		case STEN2:
			sendBorders()
			if rows > 2 {
				computeRows(2, rows-1, iter)
			}
			recvGhosts()
			computeRows(1, 1, iter)
			if rows > 1 {
				computeRows(rows, rows, iter)
			}
		}
		cur, next = next, cur
		t.EndCycle()

		if opts.RebalanceEvery <= 0 || (iter+1)%opts.RebalanceEvery != 0 || iter == iters-1 || nTasks == 1 {
			continue
		}
		// One engine round: gather (measured, rows) at rank 0, plan,
		// broadcast the (old, new) pair.
		plan, err := eng.Round(simLink{t}, iter, "interval", rows, windowComputeMs, true)
		if err != nil {
			panic(fmt.Sprintf("stencil: rank %d repart round: %v", rank, err))
		}
		windowComputeMs = 0
		if rank == 0 {
			out.Plans = append(out.Plans, plan)
			if plan.Changed() {
				out.Rebalances++
				out.MigratedRows += plan.MovedRows
			}
			copy(out.FinalVector, plan.New)
		}
		if !plan.Changed() {
			continue
		}

		// Migrate rows to their new owners through the shared protocol.
		newOwn := newOwners(plan.New)
		newRows, newOff := newOwn.Count(rank), newOwn.First(rank)
		ncur, nnext := newBlock(newRows, n), newBlock(newRows, n)
		_, _, err = mig.Migrate(simLink{t}, plan.Old, plan.New,
			func(g int) []float64 { return cur.row(g - off + 1) },
			func(g int, row []float64) { copy(ncur.row(g-newOff+1), row) })
		if err != nil {
			panic(fmt.Sprintf("stencil: rank %d migration: %v", rank, err))
		}
		rows, off = newRows, newOff
		cur, next = ncur, nnext
	}
	for i := 0; i < rows; i++ {
		copy(res.take(off+i), cur.row(i+1))
	}
}
