package stencil

import (
	"time"

	"netpart/internal/core"
	"netpart/internal/mmps"
	"netpart/internal/obs"
	"netpart/internal/repart"
)

// DefaultCheckEvery is the trigger-polling cadence (in iterations) when a
// repart trigger is configured without an explicit CheckEvery.
const DefaultCheckEvery = 4

// LiveAdaptiveOptions configures RunLiveAdaptive.
type LiveAdaptiveOptions struct {
	// RebalanceEvery recomputes the partition vector every R iterations
	// from measured wall-clock compute times (0 disables). With a Trigger
	// it becomes the fallback cadence: a plan is still computed at this
	// interval even if no drift event fired.
	RebalanceEvery int
	// Trigger, when non-nil, switches to drift-triggered repartitioning:
	// the tasks enter a protocol round every CheckEvery iterations but
	// rank 0 only plans when the trigger has fired since the last check
	// (or the RebalanceEvery fallback is due). Wire a repart.DriftTrigger
	// into drift.Config.Notify and pass the same trigger here.
	Trigger repart.Trigger
	// CheckEvery is the round cadence when Trigger is set; 0 means
	// DefaultCheckEvery. Each round costs one gather/broadcast exchange,
	// so keep it coarse relative to the cycle time.
	CheckEvery int
	// Planner parameterizes the repartitioning search (migration cost,
	// amortization horizon, hysteresis).
	Planner repart.PlannerConfig
	// WorkFactor emulates heterogeneity/load: per-rank extra repetitions
	// of the row update (1 = nominal). Nil means uniform.
	WorkFactor []int
	// Metrics, when non-nil, receives the engine's repart.* series.
	Metrics *obs.Registry
	// Trace, when non-nil, receives one "repart" event per decision.
	Trace *obs.Recorder
	// Observer, when non-nil, receives decisions as EvRepartPlan events.
	Observer core.Observer
	// Cycles, when non-nil, receives per-task per-cycle wall-clock
	// measurements — hand it the drift.Monitor that feeds the Trigger to
	// close the detect → plan → migrate loop.
	Cycles obs.CycleSink
}

// checkEvery is the effective round cadence.
func (o LiveAdaptiveOptions) checkEvery() int {
	if o.Trigger == nil {
		return o.RebalanceEvery
	}
	if o.CheckEvery > 0 {
		return o.CheckEvery
	}
	return DefaultCheckEvery
}

// LiveAdaptiveResult extends LiveResult with rebalancing statistics.
type LiveAdaptiveResult struct {
	Elapsed      time.Duration
	Grid         [][]float64
	Rebalances   int
	MigratedRows int
	FinalVector  core.Vector
	// Plans is the ordered decision sequence rank 0 took (keeps included).
	Plans []repart.Plan
}

// RunLiveAdaptive is the dynamic-repartitioning strategy on the real
// runtime: concurrent tasks over mmps transports measure their wall-clock
// compute time and repartition through the internal/repart engine — rank 0
// plans, broadcasts, and the actual grid rows migrate over the wire. The
// result is bit-exact with the sequential kernel for any plan sequence
// (decisions may vary with wall-clock noise; the migration protocol keeps
// every rank consistent because only rank 0 decides and broadcasts).
//
//netpart:wallclock
func RunLiveAdaptive(world []mmps.Transport, vec core.Vector, v Variant, n, iters int, opts LiveAdaptiveOptions) (LiveAdaptiveResult, error) {
	if err := checkLive(world, vec, n, opts.WorkFactor); err != nil {
		return LiveAdaptiveResult{}, err
	}
	initial := NewGrid(n)
	res := newResultGrid(n)
	own := repart.NewOwners(vec)
	out := LiveAdaptiveResult{FinalVector: append(core.Vector(nil), vec...)}
	eng := &repart.Engine{
		Planner:  repart.NewPlanner(opts.Planner),
		Metrics:  opts.Metrics,
		Trace:    opts.Trace,
		Observer: opts.Observer,
	}
	start := time.Now()
	hooks := liveObs{epoch: start, cycles: opts.Cycles}
	err := runRanks(world, func(tr mmps.Transport) error {
		r := newLiveRank(tr, initial, n, own, opts.WorkFactor, hooks)
		if err := r.runAdaptive(eng, v, iters, opts, &out); err != nil {
			return err
		}
		r.gather(res)
		return nil
	})
	out.Elapsed = time.Since(start)
	if err != nil {
		return LiveAdaptiveResult{}, err
	}
	if err := res.complete(); err != nil {
		return LiveAdaptiveResult{}, err
	}
	out.Grid = res.rows
	return out, nil
}

// runAdaptive mirrors the simulated adaptive body over real transports:
// the halo cycles up to the next check, then one repart engine round and,
// when the plan changed, one Migrator round.
func (r *liveRank) runAdaptive(eng *repart.Engine, v Variant, iters int, opts LiveAdaptiveOptions, out *LiveAdaptiveResult) error {
	rank, nTasks := r.tr.Rank(), r.tr.Size()
	every := opts.checkEvery()
	if every <= 0 || nTasks == 1 {
		every = iters
	}
	for from := 0; from < iters; from += every {
		to := min(from+every, iters)
		if err := r.haloCycles(v, from, to); err != nil {
			return err
		}
		if to == iters {
			break
		}
		// One engine round after iteration to-1. Every rank enters at the
		// shared cadence so the protocol stays in lockstep; only rank 0
		// consults the trigger, so wall-clock-dependent firing cannot
		// desynchronize the ranks.
		doPlan, reason := true, "interval"
		if rank == 0 && opts.Trigger != nil {
			doPlan, reason = opts.Trigger.Take(), "drift"
			if !doPlan && opts.RebalanceEvery > 0 && to%opts.RebalanceEvery == 0 {
				doPlan, reason = true, "interval"
			}
		}
		plan, err := eng.Round(r.tr, to-1, reason, r.rows, r.computeMs, doPlan)
		if err != nil {
			return err
		}
		r.computeMs = 0
		if rank == 0 {
			out.Plans = append(out.Plans, plan)
			if plan.Changed() {
				out.Rebalances++
				out.MigratedRows += plan.MovedRows
			}
			copy(out.FinalVector, plan.New)
		}
		if err := r.migrate(r.tr, plan); err != nil {
			return err
		}
	}
	return nil
}
