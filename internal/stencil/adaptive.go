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
	if err := res.complete(); err != nil {
		return AdaptiveResult{}, err
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

// runAdaptiveTask is the per-rank body: the shared cycle with injected
// slowdown, plus the repart engine's gather → plan → broadcast → migrate
// round every R iterations.
func runAdaptiveTask(t *spmd.Task, eng *repart.Engine, initial [][]float64, res *resultGrid, v Variant, n, iters int, opts AdaptiveOptions, out *AdaptiveResult) {
	s := newSimRank(t, initial, n)
	s.slowdown = opts.Slowdown
	for it := 0; it < iters; it++ {
		s.step(v, it)
		if opts.RebalanceEvery <= 0 || (it+1)%opts.RebalanceEvery != 0 || it == iters-1 || t.NumTasks() == 1 {
			continue
		}
		// One engine round: gather (measured, rows) at rank 0, plan,
		// broadcast the (old, new) pair; then migrate rows to their new
		// owners.
		plan, err := eng.Round(simLink{t}, it, "interval", s.rows, s.computeMs, true)
		if err != nil {
			panic(fmt.Sprintf("stencil: rank %d repart round: %v", t.Rank(), err))
		}
		s.computeMs = 0
		if t.Rank() == 0 {
			out.Plans = append(out.Plans, plan)
			if plan.Changed() {
				out.Rebalances++
				out.MigratedRows += plan.MovedRows
			}
			copy(out.FinalVector, plan.New)
		}
		if err := s.migrate(simLink{t}, plan); err != nil {
			panic(fmt.Sprintf("stencil: rank %d migration: %v", t.Rank(), err))
		}
	}
	s.gather(res)
}
