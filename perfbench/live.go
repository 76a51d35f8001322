package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"netpart/internal/balance"
	"netpart/internal/core"
	"netpart/internal/cost"
	"netpart/internal/experiments"
	"netpart/internal/mmps"
	"netpart/internal/model"
	"netpart/internal/obs"
	"netpart/internal/repart"
	"netpart/internal/stencil"
)

// liveRanks is the world size of both live workloads.
const liveRanks = 2

// liveWorkload is one live configuration, fixed by the workload name and
// the seed before any timing starts.
type liveWorkload struct {
	name     string
	udp      bool // loopback UDP (live-udp) or the in-memory transport (live-mem)
	adaptive bool // RunLiveAdaptive with repartitioning, else RunLiveMonitored
	variant  stencil.Variant
	n        int
	cycles   int
	factors  []int
	swap     bool // live-mem: rank 0 holds the IPC's share
	planner  repart.PlannerConfig
}

// newLiveWorkload derives the workload's inputs from the seed.
func newLiveWorkload(name string, seed int64) (*liveWorkload, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "live-mem":
		w := &liveWorkload{
			name:    name,
			variant: stencil.STEN2,
			n:       1152 + 8*rng.Intn(13),
			cycles:  500,
			factors: []int{1, 2},
			swap:    rng.Intn(2) == 1,
		}
		if w.swap {
			w.factors = []int{2, 1}
		}
		return w, nil
	case "live-udp":
		// The cmd/stencil -runtime live -repart configuration: re-plan every
		// 4 cycles, migration priced from the paper's Sparc2 1-D fit.
		mig, err := cost.PaperTable().Comm(model.Sparc2Cluster, "1-D")
		if err != nil {
			return nil, err
		}
		const n = 300
		w := &liveWorkload{
			name:     name,
			udp:      true,
			adaptive: true,
			variant:  stencil.STEN1,
			n:        n,
			cycles:   4000,
			factors:  []int{3, 1},
			planner: repart.PlannerConfig{
				Mig:           cost.MigrationFromParams(mig, float64(stencil.BytesPerPoint*n)),
				HorizonCycles: repart.DefaultHorizonCycles,
			},
		}
		if rng.Intn(2) == 1 {
			w.factors = []int{1, 3}
		}
		return w, nil
	}
	return nil, fmt.Errorf("unknown live workload %q", name)
}

// vector is the call's initial partition vector: the Eq. 3 decomposition
// of one Sparc2 and one IPC for live-mem, the equal split for live-udp.
func (w *liveWorkload) vector() (core.Vector, error) {
	if w.udp {
		return balance.EqualVector(w.n, liveRanks)
	}
	vec, err := core.Decompose(model.PaperTestbed(), experiments.PaperConfig(1, 1), w.n, model.OpFloat)
	if err != nil {
		return nil, err
	}
	if w.swap {
		vec[0], vec[1] = vec[1], vec[0]
	}
	return vec, nil
}

// newWorld creates the call's transports and returns them with a closer.
func (w *liveWorkload) newWorld(reg *obs.Registry) ([]mmps.Transport, func(), error) {
	opts := []mmps.Option{mmps.WithRecvTimeout(60 * time.Second)}
	if reg != nil {
		opts = append(opts, mmps.WithMetrics(reg))
	}
	world := make([]mmps.Transport, liveRanks)
	if w.udp {
		eps, err := mmps.NewUDPWorld(liveRanks, opts...)
		if err != nil {
			return nil, nil, err
		}
		for i, ep := range eps {
			world[i] = ep
		}
	} else {
		eps, err := mmps.NewLocalWorld(liveRanks, opts...)
		if err != nil {
			return nil, nil, err
		}
		for i, ep := range eps {
			world[i] = ep
		}
	}
	closeAll := func() {
		for _, ep := range world {
			_ = ep.Close() // teardown after the result is in hand; nothing to report
		}
	}
	return world, closeAll, nil
}

// cycleStamps is the CycleSink of a call: each rank writes the instant it
// finished each cycle into its own preallocated slot, nothing more.
type cycleStamps struct {
	epoch time.Time
	at    [][]int64
}

func newCycleStamps(ranks, cycles int) *cycleStamps {
	c := &cycleStamps{at: make([][]int64, ranks)}
	for r := range c.at {
		c.at[r] = make([]int64, cycles)
	}
	c.epoch = time.Now()
	return c
}

func (c *cycleStamps) OnCycle(task, cycle int, _ float64) {
	c.at[task][cycle] = int64(time.Since(c.epoch))
}

func (c *cycleStamps) OnExchange(int, int, float64) {}

// intervals returns, in microseconds, the time between successive
// "last rank finished cycle c" instants.
func (c *cycleStamps) intervals() []float64 {
	cycles := len(c.at[0])
	out := make([]float64, 0, cycles-1)
	prev := int64(0)
	for cyc := 0; cyc < cycles; cyc++ {
		last := int64(0)
		for r := range c.at {
			last = max(last, c.at[r][cyc])
		}
		if cyc > 0 {
			out = append(out, float64(last-prev)/1e3)
		}
		prev = last
	}
	return out
}

// liveCall is what one call of a live workload measured.
type liveCall struct {
	elapsed   time.Duration
	setup     time.Duration
	mallocs   uint64
	bytes     uint64
	intervals []float64
	grid      [][]float64
	vec       core.Vector
	plans     []repart.Plan
	applied   int
	migrated  int
	timed     []*timedTransport // traced calls only
	packets   int64
	retrans   int64
}

// call runs one closed-loop call: set up the world and vector, run the
// stencil, tear down. With a tracer it wraps the transports and records
// spans around setup, the stencil call and every transport operation.
func (w *liveWorkload) call(tr *tracer, id int) (liveCall, error) {
	var out liveCall
	stamps := newCycleStamps(liveRanks, w.cycles)
	var reg *obs.Registry
	if tr != nil {
		reg = obs.NewRegistry()
	}
	root := tr.open("bench.call", 0, id)
	defer tr.close(root)

	start := time.Now()
	sp := tr.open("setup", root.ID, id)
	world, closeWorld, err := w.newWorld(reg)
	if err != nil {
		return out, err
	}
	defer closeWorld()
	vec, err := w.vector()
	if err != nil {
		return out, err
	}
	setupDur := time.Since(start)
	tr.close(sp)

	runName := "stencil.RunLiveMonitored"
	if w.adaptive {
		runName = "stencil.RunLiveAdaptive"
	}
	sp = tr.open(runName, root.ID, id)
	if tr != nil {
		// Per rank-cycle: one send and one receive per neighbour, plus the
		// repart round's gather and broadcast.
		for r := range world {
			t := newTimedTransport(world[r], tr, sp.ID, id, 4*w.cycles+64)
			out.timed = append(out.timed, t)
			world[r] = t
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	callStart := time.Now()
	if w.adaptive {
		res, err := stencil.RunLiveAdaptive(world, vec, w.variant, w.n, w.cycles, stencil.LiveAdaptiveOptions{
			RebalanceEvery: 4,
			Planner:        w.planner,
			WorkFactor:     w.factors,
			Cycles:         stamps,
		})
		if err != nil {
			return out, err
		}
		out.elapsed, out.grid, out.vec = res.Elapsed, res.Grid, res.FinalVector
		out.plans, out.applied, out.migrated = res.Plans, res.Rebalances, res.MigratedRows
	} else {
		res, err := stencil.RunLiveMonitored(world, vec, w.variant, w.n, w.cycles, w.factors, nil, nil, stamps)
		if err != nil {
			return out, err
		}
		out.elapsed, out.grid, out.vec = res.Elapsed, res.Grid, vec
	}
	wall := time.Since(callStart)
	runtime.ReadMemStats(&ms1)
	tr.close(sp)

	out.setup = setupDur + wall - out.elapsed
	out.mallocs = ms1.Mallocs - ms0.Mallocs
	out.bytes = ms1.TotalAlloc - ms0.TotalAlloc
	out.intervals = stamps.intervals()
	for _, t := range out.timed {
		t.flush()
	}
	if reg != nil {
		out.packets = reg.Counter(mmps.MetricPacketsSent).Value()
		out.retrans = reg.Counter(mmps.MetricRetransmits).Value()
	}
	return out, nil
}

// gridsEqual reports whether two grids are bit-identical.
func gridsEqual(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// liveRun accumulates the calls of one phase.
type liveRun struct {
	calls     []liveCall
	attempted int
	failed    int
}

// runLivePhase calls w in a closed loop until d has passed (at least once),
// checking every result against the sequential reference.
func runLivePhase(w *liveWorkload, ref [][]float64, d time.Duration, tr *tracer, firstID int, r *report) liveRun {
	var run liveRun
	start := time.Now()
	for run.attempted == 0 || time.Since(start) < d {
		id := firstID + run.attempted
		run.attempted++
		c, err := w.call(tr, id)
		if err != nil {
			run.failed++
			r.fail("%s call %d: %v", w.name, id, err)
			continue
		}
		if !gridsEqual(c.grid, ref) {
			run.failed++
			r.fail("%s call %d: final grid differs from stencil.Sequential", w.name, id)
			continue
		}
		c.grid = nil
		run.calls = append(run.calls, c)
	}
	return run
}

// liveEndToEnd sets the end-to-end metrics of an untraced phase.
func liveEndToEnd(w *liveWorkload, run liveRun, r *report) {
	// Cycle percentiles are taken per call and then the median over calls,
	// so a burst of interference on the machine moves few calls, not the
	// reported value. Per-cell forms divide by the N² cells a cycle updates,
	// which keeps seeds with different N comparable.
	var setup, callMs, cups, allocs, bytes, p50, p90 []float64
	samples := 0
	cells := float64(w.n * w.n)
	for _, c := range run.calls {
		setup = append(setup, c.setup.Seconds())
		callMs = append(callMs, float64(c.elapsed)/1e6)
		cups = append(cups, cells*float64(w.cycles)/c.elapsed.Seconds())
		allocs = append(allocs, float64(c.mallocs)/float64(w.cycles))
		bytes = append(bytes, float64(c.bytes)/(cells*float64(w.cycles)))
		p50 = append(p50, quantile(c.intervals, 0.5))
		p90 = append(p90, quantile(c.intervals, 0.9))
		samples += len(c.intervals)
	}
	r.set("setup_s", median(setup), "s")
	r.set("op_ns_per_cell_p50", median(p50)*1e3/cells, "ns")
	r.set("alloc_bytes_per_cell", median(bytes), "B")
	r.note("cell_updates_per_s", median(cups), "1/s")
	r.note("op_ns_per_cell_p90", median(p90)*1e3/cells, "ns")
	r.note("allocs_per_op", median(allocs), "count")
	r.note("call_ms_p50", median(callMs), "ms")
	r.note("cycle_us_p50", median(p50), "us")
	r.note("cycle_us_p90", median(p90), "us")
	r.note("cycle_samples", float64(samples), "count")
	r.note("calls", float64(len(run.calls)), "count")
	r.note("failed_frac", float64(run.failed)/float64(run.attempted), "ratio")
}

// liveLayers sets the per-layer metrics from a traced phase. cycleP50 is
// the untraced phase's cycle_us_p50 and untracedMs its call_ms_p50.
func liveLayers(w *liveWorkload, run liveRun, cal calibration, cycleP50, untracedMs float64, r *report) {
	var sends, recvs, callMs []float64
	var sendNs, recvNs, bytesSent, packets, retrans float64
	var msgs, errs int
	var planUs []float64
	var rounds, applied, migrated, evals, planned float64
	var kernelUs []float64
	rankCycles := float64(liveRanks * w.cycles * len(run.calls))
	for _, c := range run.calls {
		callMs = append(callMs, float64(c.elapsed)/1e6)
		for _, t := range c.timed {
			for _, op := range t.ops {
				d := float64(op.dur())
				switch op.Name {
				case spanSend:
					sends = append(sends, d/1e3)
					sendNs += d
					msgs++
				case spanRecv:
					recvs = append(recvs, d/1e3)
					recvNs += d
				}
			}
			bytesSent += float64(t.bytes)
			errs += t.errors
		}
		packets += float64(c.packets)
		retrans += float64(c.retrans)
		rounds += float64(len(c.plans))
		applied += float64(c.applied)
		migrated += float64(c.migrated)
		for _, p := range c.plans {
			if p.Evaluations > 0 {
				planUs = append(planUs, p.PlanMs*1e3)
				evals += float64(p.Evaluations)
				planned++
			}
		}
		k := 0.0
		for rank, rows := range c.vec {
			k += cal.SweepNsPerCell * float64(rows*w.n*w.factors[rank]) / 1e3
		}
		kernelUs = append(kernelUs, k/liveRanks)
	}
	nCalls := float64(len(run.calls))
	cycles := float64(w.cycles) * nCalls
	elapsedUs := 0.0
	for _, ms := range callMs {
		elapsedUs += ms * 1e3
	}
	cycleUs := elapsedUs / cycles
	sendUs := sendNs / 1e3 / rankCycles
	waitUs := recvNs / 1e3 / rankCycles
	otherUs := cycleUs - sendUs - waitUs
	codecUs := cal.CodecNsPerByte * bytesSent / rankCycles / 1e3
	kernel := mean(kernelUs)

	r.setLayer("mmps.msgs_per_cycle", float64(msgs)/cycles)
	r.setLayer("mmps.bytes_per_cycle", bytesSent/cycles)
	r.setLayer("mmps.send_us_p50", orZero(quantile(sends, 0.5)))
	r.setLayer("mmps.recv_us_p50", orZero(quantile(recvs, 0.5)))
	r.setLayer("mmps.recv_us_p90", orZero(quantile(recvs, 0.9)))
	r.setLayer("mmps.errors", float64(errs))
	r.setLayer("mmps.wait_frac", recvNs/1e3/(elapsedUs*liveRanks))
	r.setLayer("mmps.packets_per_cycle", packets/cycles)
	r.setLayer("mmps.retransmits", retrans/nCalls)
	r.setLayer("repart.rounds", rounds/nCalls)
	r.setLayer("repart.plans_applied", applied/nCalls)
	r.setLayer("repart.rows_migrated", migrated/nCalls)
	r.setLayer("repart.plan_us_p50", orZero(median(planUs)))
	if planned > 0 {
		r.setLayer("repart.evals_per_plan", evals/planned)
	}
	r.setLayer("phase.cycle_us", cycleUs)
	r.setLayer("phase.send_us", sendUs)
	r.setLayer("phase.wait_us", waitUs)
	r.setLayer("phase.other_us", otherUs)
	r.setLayer("phase.kernel_model_us", kernel)
	r.setLayer("phase.codec_us", codecUs)
	r.setLayer("phase.residual_us", otherUs-kernel-codecUs)
	r.setLayer("live.parallel_eff", cal.SweepNsPerCell*float64(w.n*w.n)/(cycleP50*1e3*float64(min(liveRanks, runtime.NumCPU()))))
	r.setLayer("trace.overhead_pct", (median(callMs)/untracedMs-1)*100)
}

// runLive runs a live workload: reference and calibration outside timing,
// then the untraced phase, and with traced set a second, traced phase.
func runLive(name string, seed int64, seconds float64, traced bool, outDir string, r *report) (attempted, failed int, err error) {
	w, err := newLiveWorkload(name, seed)
	if err != nil {
		return 0, 0, err
	}
	r.note("workload.n", float64(w.n), "count")
	r.note("workload.cycles_per_call", float64(w.cycles), "count")
	r.note("workload.rank0_work_factor", float64(w.factors[0]), "count")
	ref := stencil.Sequential(stencil.NewGrid(w.n), w.cycles)
	d := time.Duration(seconds * float64(time.Second))
	if !traced {
		run := runLivePhase(w, ref, d, nil, 0, r)
		if len(run.calls) > 0 {
			liveEndToEnd(w, run, r)
		}
		return run.attempted, run.failed, nil
	}

	cal, err := calibrate(w.n)
	if err != nil {
		return 0, 0, err
	}
	r.setLayer("stencil.sweep_ns_per_cell", cal.SweepNsPerCell)
	r.setLayer("codec.ns_per_byte", cal.CodecNsPerByte)
	r.setLayer("stencil.subnormal_frac", subnormalFrac(ref))

	base := runLivePhase(w, ref, d/2, nil, 0, r)
	if len(base.calls) == 0 {
		return base.attempted, base.failed, nil
	}
	var callMs, mallocs, cups, p50, p90 []float64
	for _, c := range base.calls {
		callMs = append(callMs, float64(c.elapsed)/1e6)
		mallocs = append(mallocs, float64(c.mallocs)/float64(w.cycles))
		cups = append(cups, float64(w.n*w.n*w.cycles)/c.elapsed.Seconds())
		p50 = append(p50, quantile(c.intervals, 0.5))
		p90 = append(p90, quantile(c.intervals, 0.9))
	}
	r.setLayer("alloc.mallocs_per_op", median(mallocs))
	r.setLayer("live.cell_updates_per_s", median(cups))
	r.setLayer("live.cycle_us_p50", median(p50))
	r.setLayer("live.cycle_us_p90", median(p90))
	tr := newTracer()
	prof, err := startCPUProfile()
	if err != nil {
		return 0, 0, err
	}
	before := takeAllocSnapshot()
	run := runLivePhase(w, ref, d/2, tr, base.attempted, r)
	after := takeAllocSnapshot()
	self, err := prof.stop()
	if err != nil {
		return 0, 0, err
	}
	attempted, failed = base.attempted+run.attempted, base.failed+run.failed
	if len(run.calls) == 0 {
		return attempted, failed, nil
	}
	liveLayers(w, run, cal, median(p50), median(callMs), r)
	setProfiles(r, self, allocByModule(before, after), float64(w.cycles*len(run.calls)))
	path, err := tr.writeOut(outDir, name, seed)
	if err != nil {
		return attempted, failed, err
	}
	fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
	return attempted, failed, nil
}
