package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"time"

	"netpart/internal/balance"
	"netpart/internal/commbench"
	"netpart/internal/core"
	"netpart/internal/cost"
	"netpart/internal/experiments"
	"netpart/internal/model"
	"netpart/internal/stencil"
	"netpart/internal/topo"
	"netpart/internal/trace"
)

// Fig. 3 and E9 parameters of one regeneration, and how often set-up
// steps are repeated for a median.
const (
	fig3N         = 600
	adaptiveN     = 200
	adaptiveIters = 40
	setupRepeats  = 5
	commbenchFits = 3
)

var paperVariants = []stencil.Variant{stencil.STEN1, stencil.STEN2}

// simTimes are every simulated time one regeneration reports. The paper
// fixes these inputs, so they are compared exactly against golden.json,
// captured from the implementation the benchmark was defined on.
// Predictions are left out: they feed the model-quality metrics.
type simTimes struct {
	Table2   []table2Times        `json:"table2"`
	Fig3     map[string][]float64 `json:"fig3_simulated_tc_ms"`
	Adaptive adaptiveTimes        `json:"adaptive"`
}

type table2Times struct {
	N             int       `json:"n"`
	Variant       string    `json:"variant"`
	CellsMs       []float64 `json:"cells_ms"`
	EqualDecompMs float64   `json:"equal_decomp_ms"`
}

type adaptiveTimes struct {
	StaticMs     float64 `json:"static_ms"`
	AdaptiveMs   float64 `json:"adaptive_ms"`
	Exact        bool    `json:"exact"`
	FinalVector  []int   `json:"final_vector"`
	MigratedRows int     `json:"migrated_rows"`
}

//go:embed golden.json
var goldenJSON []byte

func loadGolden() (simTimes, error) {
	var g simTimes
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return g, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// regeneration is the output of one parallel regeneration.
type regeneration struct {
	table2   []experiments.Table2Row
	fig3     [][]experiments.Fig3Point // one curve per paperVariants entry
	adaptive *experiments.AdaptiveResult
}

// regenerate runs the paper's artefacts through the experiment engine. With
// a tracer it records a span around each experiments call.
func regenerate(e *experiments.Env, tr *tracer, parent int64, id int) (*regeneration, error) {
	g := regeneration{fig3: make([][]experiments.Fig3Point, len(paperVariants))}
	var err error
	sp := tr.open("experiments.Table2", parent, id)
	g.table2, err = experiments.Table2(e)
	tr.close(sp)
	if err != nil {
		return nil, err
	}
	for i, v := range paperVariants {
		sp = tr.open("experiments.Fig3", parent, id)
		g.fig3[i], err = experiments.Fig3(e, fig3N, v)
		tr.close(sp)
		if err != nil {
			return nil, err
		}
	}
	sp = tr.open("experiments.Adaptive", parent, id)
	g.adaptive, err = experiments.Adaptive(e, adaptiveN, adaptiveIters)
	tr.close(sp)
	return &g, err
}

// times extracts the golden-checked simulated times.
func (g *regeneration) times() simTimes {
	t := simTimes{Fig3: map[string][]float64{}}
	for _, row := range g.table2 {
		tt := table2Times{N: row.N, Variant: row.Variant.String(), EqualDecompMs: row.EqualDecompMs}
		for _, c := range row.Cells {
			tt.CellsMs = append(tt.CellsMs, c.ElapsedMs)
		}
		t.Table2 = append(t.Table2, tt)
	}
	for i, v := range paperVariants {
		for _, p := range g.fig3[i] {
			t.Fig3[v.String()] = append(t.Fig3[v.String()], p.SimulatedTcMs)
		}
	}
	a := g.adaptive
	t.Adaptive = adaptiveTimes{StaticMs: a.StaticMs, AdaptiveMs: a.AdaptiveMs, Exact: a.Exact,
		FinalVector: append([]int(nil), a.FinalVector...), MigratedRows: a.MigratedRows}
	return t
}

// work counts one regeneration's simulated executions and the grid cells
// their kernels update (N² per iteration per execution).
func (g *regeneration) work() (runs int, cells float64) {
	for _, row := range g.table2 {
		k := len(row.Cells)
		if row.EqualDecompMs > 0 {
			k++
		}
		predicted := false
		for _, c := range row.Cells {
			predicted = predicted || c.Predicted
		}
		if !predicted {
			k++ // the out-of-set prediction was simulated too
		}
		runs += k
		cells += float64(k) * float64(row.N*row.N*experiments.Iterations)
	}
	for i := range paperVariants {
		runs += len(g.fig3[i])
		cells += float64(len(g.fig3[i])) * float64(fig3N*fig3N*experiments.Iterations)
	}
	runs += 2 // static and adaptive E9 runs
	cells += 2 * float64(adaptiveN*adaptiveN*adaptiveIters)
	return runs, cells
}

// quality returns the deterministic model-quality maxima: the largest
// Table 2 predicted-vs-best gap and the largest |Fig. 3 estimate error|.
func (g *regeneration) quality() (gap, fig3Err float64) {
	for _, row := range g.table2 {
		gap = math.Max(gap, row.PredictedGapPct)
	}
	for i := range paperVariants {
		for _, p := range g.fig3[i] {
			fig3Err = math.Max(fig3Err, math.Abs(p.EstimateErrPct))
		}
	}
	return gap, fig3Err
}

// paperCall is one measured regeneration.
type paperCall struct {
	wall    time.Duration
	runs    int
	cells   float64
	mallocs uint64
	bytes   uint64
}

// paperPhase runs regenerations in a closed loop until d has passed (at
// least once), checking each against the golden times.
func paperPhase(e *experiments.Env, golden simTimes, d time.Duration, tr *tracer, firstID int, r *report,
	each func(id int, g *regeneration)) (calls []paperCall, attempted, failed int) {
	start := time.Now()
	for attempted == 0 || time.Since(start) < d {
		id := firstID + attempted
		attempted++
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		root := tr.open("bench.call", 0, id)
		t0 := time.Now()
		g, err := regenerate(e, tr, root.ID, id)
		wall := time.Since(t0)
		tr.close(root)
		runtime.ReadMemStats(&ms1)
		if err != nil {
			failed++
			r.fail("regeneration %d: %v", id, err)
			continue
		}
		if got := g.times(); !reflect.DeepEqual(got, golden) {
			failed++
			r.fail("regeneration %d: simulated times differ from golden.json", id)
			continue
		}
		runs, cells := g.work()
		calls = append(calls, paperCall{wall: wall, runs: runs, cells: cells,
			mallocs: ms1.Mallocs - ms0.Mallocs, bytes: ms1.TotalAlloc - ms0.TotalAlloc})
		if each != nil {
			each(id, g)
		}
	}
	return calls, attempted, failed
}

// paperEndToEnd sets the end-to-end metrics from the untraced phase.
func paperEndToEnd(calls []paperCall, setup []float64, g *regeneration, attempted, failed int, r *report) {
	var wallMs, cups, nsPerCell, allocs, bytes []float64
	runs, secs := 0, 0.0
	for _, c := range calls {
		wallMs = append(wallMs, float64(c.wall)/1e6)
		cups = append(cups, c.cells/c.wall.Seconds())
		nsPerCell = append(nsPerCell, float64(c.wall)/c.cells)
		allocs = append(allocs, float64(c.mallocs)/float64(c.runs))
		bytes = append(bytes, float64(c.bytes)/c.cells)
		runs += c.runs
		secs += c.wall.Seconds()
	}
	r.set("setup_s", median(setup), "s")
	// The engine runs a regeneration's executions concurrently, so per-op
	// times are per regeneration: its wall time over the cells it simulated.
	r.set("op_ns_per_cell_p50", quantile(nsPerCell, 0.5), "ns")
	r.set("alloc_bytes_per_cell", median(bytes), "B")
	r.note("cell_updates_per_s", median(cups), "1/s")
	r.note("op_ns_per_cell_p90", quantile(nsPerCell, 0.9), "ns")
	r.note("allocs_per_op", median(allocs), "count")
	gap, fig3Err := g.quality()
	r.note("regen_ms_p50", median(wallMs), "ms")
	r.note("regen_samples", float64(len(wallMs)), "count")
	r.note("sim_runs_per_s", float64(runs)/secs, "1/s")
	r.note("table2_gap_pct_max", gap, "%")
	r.note("fig3_err_pct_max", fig3Err, "%")
	r.note("failed_frac", float64(failed)/float64(attempted), "ratio")
}

// newEnvs builds the experiment environment several times and returns the
// last one with every build time in seconds.
func newEnvs(tr *tracer) (*experiments.Env, []float64, error) {
	var e *experiments.Env
	var setup []float64
	for i := 0; i < setupRepeats; i++ {
		sp := tr.open("setup", 0, -1)
		t0 := time.Now()
		var err error
		e, err = experiments.NewEnv()
		setup = append(setup, time.Since(t0).Seconds())
		tr.close(sp)
		if err != nil {
			return nil, nil, err
		}
	}
	return e, setup, nil
}

// runPaperSim runs the paper-sim workload. The paper fixes every input, so
// the seed is only recorded.
func runPaperSim(seed int64, seconds float64, traced bool, outDir string, r *report) (attempted, failed int, err error) {
	r.note("workload.seed_unused", float64(seed), "count")
	golden, err := loadGolden()
	if err != nil {
		return 0, 0, err
	}
	d := time.Duration(seconds * float64(time.Second))
	if !traced {
		e, setup, err := newEnvs(nil)
		if err != nil {
			return 0, 0, err
		}
		var last *regeneration
		calls, attempted, failed := paperPhase(e, golden, d, nil, 0, r, func(_ int, g *regeneration) { last = g })
		if last != nil {
			paperEndToEnd(calls, setup, last, attempted, failed, r)
		}
		return attempted, failed, nil
	}
	return runPaperTraced(seed, golden, d, outDir, r)
}

// runPaperTraced is the traced paper-sim run: an untraced phase of parallel
// regenerations, then a traced phase alternating a traced parallel
// regeneration with the serial replay of its units.
func runPaperTraced(seed int64, golden simTimes, d time.Duration, outDir string, r *report) (attempted, failed int, err error) {
	tr := newTracer()
	e, _, err := newEnvs(tr)
	if err != nil {
		return 0, 0, err
	}
	var fitMs []float64
	for i := 0; i < commbenchFits; i++ {
		sp := tr.open("commbench.Run", 0, -1)
		t0 := time.Now()
		_, err := commbench.Run(model.PaperTestbed(), []topo.Topology{topo.OneD{}, topo.Broadcast{}}, commbench.DefaultGrid())
		fitMs = append(fitMs, float64(time.Since(t0))/1e6)
		tr.close(sp)
		if err != nil {
			return 0, 0, err
		}
	}
	r.setLayer("commbench.fit_ms", median(fitMs))
	cal, err := calibrate(fig3N)
	if err != nil {
		return 0, 0, err
	}
	r.setLayer("stencil.sweep_ns_per_cell", cal.SweepNsPerCell)
	r.setLayer("codec.ns_per_byte", cal.CodecNsPerByte)
	r.setLayer("stencil.subnormal_frac", subnormalFrac(stencil.Sequential(stencil.NewGrid(fig3N), experiments.Iterations)))

	base, attempted, failed := paperPhase(e, golden, d/2, nil, 0, r, nil)
	if len(base) == 0 {
		return attempted, failed, nil
	}
	var baseMs, mallocs []float64
	for _, c := range base {
		baseMs = append(baseMs, float64(c.wall)/1e6)
		mallocs = append(mallocs, float64(c.mallocs)/float64(c.runs))
	}
	r.setLayer("alloc.mallocs_per_op", median(mallocs))

	prof, err := startCPUProfile()
	if err != nil {
		return 0, 0, err
	}
	before := takeAllocSnapshot()
	var replays []*replayStats
	ops := 0
	var replayErr error
	calls, a, f := paperPhase(e, golden, d/2, tr, attempted, r, func(id int, g *regeneration) {
		if replayErr != nil {
			return
		}
		st, err := replay(e, tr, id)
		if err != nil {
			replayErr = err
			return
		}
		// Fidelity: the serial replay must reproduce exactly the simulated
		// times the parallel experiment engine reported.
		if !reflect.DeepEqual(st.times, g.times()) {
			r.fail("replay %d: serial replay times differ from the parallel regeneration", id)
			failed++
		}
		ops += st.runs
		replays = append(replays, st)
	})
	after := takeAllocSnapshot()
	self, perr := prof.stop()
	attempted, failed = attempted+a, failed+f
	if replayErr != nil {
		return attempted, failed, fmt.Errorf("serial replay: %w", replayErr)
	}
	if perr != nil {
		return attempted, failed, perr
	}
	if len(calls) == 0 || len(replays) == 0 {
		return attempted, failed, nil
	}
	for _, c := range calls {
		ops += c.runs
	}
	var tracedMs []float64
	for _, c := range calls {
		tracedMs = append(tracedMs, float64(c.wall)/1e6)
	}
	paperLayers(replays, median(baseMs), median(tracedMs), r)
	setProfiles(r, self, allocByModule(before, after), float64(ops))
	path, err := tr.writeOut(outDir, "paper-sim", seed)
	if err != nil {
		return attempted, failed, err
	}
	fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
	return attempted, failed, nil
}

// replayStats is what one serial replay of a regeneration measured.
type replayStats struct {
	wall      time.Duration
	runs      int
	times     simTimes
	partition []float64 // µs per core.Partition
	evals     []float64 // estimator evaluations per partition
	probeNs   []float64 // ns per DeltaEval.Probe, one entry per Fig. 3 sweep
	simMs     []float64 // ms per stencil.RunSim
	msgs      []float64 // messages per simulated run
	bytes     []float64 // bytes per simulated run
	gap       float64
	fig3Err   float64
	plans     []float64 // µs per computed E9 plan
	planEvals []float64
	rounds    int
	applied   int
	migrated  int
}

// replay re-runs one regeneration's units serially on the calling
// goroutine through the same public functions the experiment engine calls,
// recording a span around each call into core and stencil.
func replay(e *experiments.Env, tr *tracer, id int) (*replayStats, error) {
	st := &replayStats{times: simTimes{Fig3: map[string][]float64{}}}
	root := tr.open("bench.replay", 0, id)
	defer tr.close(root)
	t0 := time.Now()
	defer func() { st.wall = time.Since(t0) }()

	sim := func(cfg cost.Config, vec core.Vector, v stencil.Variant, n int) (float64, error) {
		sp := tr.open("stencil.RunSim", root.ID, id)
		s0 := time.Now()
		res, err := stencil.RunSim(e.Net, cfg, vec, v, n, experiments.Iterations)
		st.simMs = append(st.simMs, float64(time.Since(s0))/1e6)
		tr.close(sp)
		if err != nil {
			return 0, err
		}
		var msgs, bytes int64
		for _, p := range res.Report.Procs {
			msgs += p.Sent
			bytes += p.BytesSent
		}
		st.msgs = append(st.msgs, float64(msgs))
		st.bytes = append(st.bytes, float64(bytes))
		st.runs++
		return res.ElapsedMs, nil
	}
	decompose := func(cfg cost.Config, n int) (core.Vector, error) {
		sp := tr.open("core.Decompose", root.ID, id)
		defer tr.close(sp)
		return core.Decompose(e.Net, cfg, n, model.OpFloat)
	}

	// Table 2: prediction, the seven configurations, the N=1200
	// equal-decomposition run, and an out-of-set prediction when there is one.
	for _, n := range experiments.ProblemSizes {
		for _, v := range paperVariants {
			sp := tr.open("core.Partition", root.ID, id)
			p0 := time.Now()
			est, err := core.NewEstimator(e.Net, e.Fitted, stencil.Annotations(n, v, experiments.Iterations))
			if err != nil {
				return nil, err
			}
			pred, err := core.Partition(est)
			st.partition = append(st.partition, float64(time.Since(p0))/1e3)
			tr.close(sp)
			if err != nil {
				return nil, err
			}
			st.evals = append(st.evals, float64(est.Evaluations()))
			row := table2Times{N: n, Variant: v.String()}
			best, predMs := math.Inf(1), math.Inf(1)
			for _, c := range experiments.Table2Configs {
				cc := experiments.PaperConfig(c.P1, c.P2)
				vec, err := decompose(cc, n)
				if err != nil {
					return nil, err
				}
				ms, err := sim(cc, vec, v, n)
				if err != nil {
					return nil, err
				}
				row.CellsMs = append(row.CellsMs, ms)
				best = math.Min(best, ms)
				if c.P1 == pred.Config.Counts[0] && c.P2 == pred.Config.Counts[1] {
					predMs = ms
				}
			}
			if n == 1200 {
				eq, err := balance.EqualVector(n, 12)
				if err != nil {
					return nil, err
				}
				row.EqualDecompMs, err = sim(experiments.PaperConfig(6, 6), eq, v, n)
				if err != nil {
					return nil, err
				}
			}
			if math.IsInf(predMs, 1) {
				cc := pred.Config
				vec, err := decompose(cc, n)
				if err != nil {
					return nil, err
				}
				if predMs, err = sim(cc, vec, v, n); err != nil {
					return nil, err
				}
				best = math.Min(best, predMs)
			}
			st.gap = math.Max(st.gap, trace.DeviationPct(predMs, best))
			st.times.Table2 = append(st.times.Table2, row)
		}
	}

	// Fig. 3: one delta evaluator probes the whole sweep, then each point
	// is simulated.
	for _, v := range paperVariants {
		est, err := core.NewEstimator(e.Net, e.Fitted, stencil.Annotations(fig3N, v, experiments.Iterations))
		if err != nil {
			return nil, err
		}
		delta, err := est.BeginDelta(experiments.PaperConfig(6, 0))
		if err != nil {
			return nil, err
		}
		procs := e.Net.TotalProcs()
		ests := make([]float64, procs)
		sp := tr.open("core.Probe", root.ID, id)
		p0 := time.Now()
		for i := range ests {
			p := i + 1
			var pe core.Estimate
			if p <= 6 {
				pe, err = delta.Probe(0, p)
			} else {
				pe, err = delta.Probe(1, p-6)
			}
			if err != nil {
				return nil, err
			}
			ests[i] = pe.TcMs
		}
		st.probeNs = append(st.probeNs, float64(time.Since(p0))/float64(procs))
		tr.close(sp)
		for i := range ests {
			p1, p2 := i+1, 0
			if p1 > 6 {
				p1, p2 = 6, i+1-6
			}
			cc := experiments.PaperConfig(p1, p2)
			vec, err := decompose(cc, fig3N)
			if err != nil {
				return nil, err
			}
			ms, err := sim(cc, vec, v, fig3N)
			if err != nil {
				return nil, err
			}
			simTc := ms / experiments.Iterations
			st.times.Fig3[v.String()] = append(st.times.Fig3[v.String()], simTc)
			st.fig3Err = math.Max(st.fig3Err, math.Abs(trace.DeviationPct(ests[i], simTc)))
		}
	}

	// E9: the same static and adaptive runs experiments.Adaptive makes.
	cc := experiments.PaperConfig(4, 0)
	vec, err := decompose(cc, adaptiveN)
	if err != nil {
		return nil, err
	}
	slowdown := func(rank, iter int) float64 {
		if rank == 2 && iter >= adaptiveIters/8 {
			return 4
		}
		return 1
	}
	var runs [2]stencil.AdaptiveResult
	for i, every := range []int{0, adaptiveIters / 8} {
		sp := tr.open("stencil.RunSimAdaptive", root.ID, id)
		runs[i], err = stencil.RunSimAdaptive(e.Net, cc, vec, stencil.STEN1, adaptiveN, adaptiveIters,
			stencil.AdaptiveOptions{Slowdown: slowdown, RebalanceEvery: every})
		tr.close(sp)
		if err != nil {
			return nil, err
		}
		st.runs++
	}
	sp := tr.open("stencil.Sequential", root.ID, id)
	want := stencil.Sequential(stencil.NewGrid(adaptiveN), adaptiveIters)
	tr.close(sp)
	ad := runs[1]
	st.times.Adaptive = adaptiveTimes{
		StaticMs: runs[0].ElapsedMs, AdaptiveMs: ad.ElapsedMs,
		Exact:       gridsEqual(runs[0].Grid, want) && gridsEqual(ad.Grid, want),
		FinalVector: append([]int(nil), ad.FinalVector...), MigratedRows: ad.MigratedRows,
	}
	st.rounds, st.applied, st.migrated = len(ad.Plans), ad.Rebalances, ad.MigratedRows
	for _, p := range ad.Plans {
		if p.Evaluations > 0 {
			st.plans = append(st.plans, p.PlanMs*1e3)
			st.planEvals = append(st.planEvals, float64(p.Evaluations))
		}
	}
	return st, nil
}

// paperLayers sets the per-layer metrics of the traced paper-sim run from
// its serial replays. baseMs and tracedMs are the untraced and traced
// parallel regenerations' median wall times.
func paperLayers(replays []*replayStats, baseMs, tracedMs float64, r *report) {
	var wallMs, partition, evals, probe, simMs, msgs, bytes, plans, planEvals []float64
	var rounds, applied, migrated float64
	for _, st := range replays {
		wallMs = append(wallMs, float64(st.wall)/1e6)
		partition = append(partition, st.partition...)
		evals = append(evals, st.evals...)
		probe = append(probe, st.probeNs...)
		simMs = append(simMs, st.simMs...)
		msgs = append(msgs, st.msgs...)
		bytes = append(bytes, st.bytes...)
		plans = append(plans, st.plans...)
		planEvals = append(planEvals, st.planEvals...)
		rounds += float64(st.rounds)
		applied += float64(st.applied)
		migrated += float64(st.migrated)
	}
	n := float64(len(replays))
	last := replays[len(replays)-1]
	r.setLayer("experiments.fanout_speedup", median(wallMs)/baseMs)
	r.setLayer("core.partition_us", median(partition))
	r.setLayer("core.evals_per_partition", mean(evals))
	r.setLayer("core.probe_ns", median(probe))
	r.setLayer("core.table2_gap_pct_max", last.gap)
	r.setLayer("core.fig3_err_pct_max", last.fig3Err)
	r.setLayer("simnet.run_ms_p50", median(simMs))
	r.setLayer("simnet.msgs_per_run", mean(msgs))
	r.setLayer("simnet.bytes_per_run", mean(bytes))
	r.setLayer("repart.rounds", rounds/n)
	r.setLayer("repart.plans_applied", applied/n)
	r.setLayer("repart.rows_migrated", migrated/n)
	r.setLayer("repart.plan_us_p50", orZero(median(plans)))
	r.setLayer("repart.evals_per_plan", mean(planEvals))
	r.setLayer("trace.overhead_pct", (tracedMs/baseMs-1)*100)
}
