// Command perfbench is netpart's end-to-end benchmark. It runs one workload
// in a closed loop for a fixed time, checks every output, and prints the
// metrics as "name value unit" lines followed by one JSON result line.
//
//	go run . --workload paper-sim --seed 1 --seconds 10 --trace 0
//
// Workloads: paper-sim (the paper's Table 2, Fig. 3 and E9 regenerated on
// the simulator), live-mem (compute-bound live stencil over the in-memory
// transport) and live-udp (communication-bound live stencil with
// repartitioning over loopback UDP). With --trace 0 it reports the
// end-to-end metrics; with --trace 1 it runs an untraced and a traced
// phase and reports the per-layer metrics. README.md explains each.
//
// The benchmark measures real time by design; the //netpart:wallclock
// directive below declares that boundary to netpartlint, so callbacks it
// hands the runtimes (the CycleSink) are not taken for hidden
// nondeterminism in deterministic packages.
//
//netpart:wallclock
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// endToEnd are the metrics of an untraced run, in every workload. Only
// metrics that stay steady on a shared machine are here: throughput and
// tail percentiles move with CPU steal from other tenants, so they are
// printed and reported per layer instead (live.*).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"op_ns_per_cell_p50", "ns"},
	{"alloc_bytes_per_cell", "B"},
}

// perLayer are the metrics of a traced run, in every workload; a layer a
// workload does not reach reports zero.
var perLayer = []struct{ name, unit string }{
	{"experiments.fanout_speedup", "ratio"},
	{"core.partition_us", "us"},
	{"core.evals_per_partition", "count"},
	{"core.probe_ns", "ns"},
	{"core.table2_gap_pct_max", "%"},
	{"core.fig3_err_pct_max", "%"},
	{"commbench.fit_ms", "ms"},
	{"simnet.run_ms_p50", "ms"},
	{"simnet.msgs_per_run", "count"},
	{"simnet.bytes_per_run", "B"},
	{"stencil.sweep_ns_per_cell", "ns"},
	{"stencil.subnormal_frac", "ratio"},
	{"codec.ns_per_byte", "ns"},
	{"live.parallel_eff", "ratio"},
	{"live.cell_updates_per_s", "1/s"},
	{"live.cycle_us_p50", "us"},
	{"live.cycle_us_p90", "us"},
	{"mmps.msgs_per_cycle", "count"},
	{"mmps.bytes_per_cycle", "B"},
	{"mmps.send_us_p50", "us"},
	{"mmps.recv_us_p50", "us"},
	{"mmps.recv_us_p90", "us"},
	{"mmps.errors", "count"},
	{"mmps.wait_frac", "ratio"},
	{"mmps.packets_per_cycle", "count"},
	{"mmps.retransmits", "count"},
	{"repart.rounds", "count"},
	{"repart.plans_applied", "count"},
	{"repart.rows_migrated", "count"},
	{"repart.plan_us_p50", "us"},
	{"repart.evals_per_plan", "count"},
	{"phase.cycle_us", "us"},
	{"phase.send_us", "us"},
	{"phase.wait_us", "us"},
	{"phase.other_us", "us"},
	{"phase.kernel_model_us", "us"},
	{"phase.codec_us", "us"},
	{"phase.residual_us", "us"},
	{"self.stencil_frac", "ratio"},
	{"self.simnet_frac", "ratio"},
	{"self.spmd_frac", "ratio"},
	{"self.mmps_frac", "ratio"},
	{"self.core_frac", "ratio"},
	{"self.repart_frac", "ratio"},
	{"self.experiments_frac", "ratio"},
	{"self.runtime_gc_frac", "ratio"},
	{"self.runtime_sched_frac", "ratio"},
	{"self.syscall_frac", "ratio"},
	{"self.other_frac", "ratio"},
	{"alloc.stencil_bytes_per_op", "B"},
	{"alloc.simnet_bytes_per_op", "B"},
	{"alloc.spmd_bytes_per_op", "B"},
	{"alloc.mmps_bytes_per_op", "B"},
	{"alloc.core_bytes_per_op", "B"},
	{"alloc.repart_bytes_per_op", "B"},
	{"alloc.experiments_bytes_per_op", "B"},
	{"alloc.other_bytes_per_op", "B"},
	{"alloc.mallocs_per_op", "count"},
	{"trace.overhead_pct", "%"},
}

// setLayer records a per-layer metric under its declared unit.
func (r *report) setLayer(name string, v float64) {
	for _, m := range perLayer {
		if m.name == name {
			r.set(name, v, m.unit)
			return
		}
	}
	panic("perfbench: undeclared per-layer metric " + name)
}

// setProfiles records the CPU split and allocation bytes per op by module.
func setProfiles(r *report, self, alloc map[string]float64, ops float64) {
	for _, b := range cpuBuckets {
		r.setLayer("self."+b+"_frac", self[b])
	}
	for _, b := range allocBuckets {
		r.setLayer("alloc."+b+"_bytes_per_op", alloc[b]/ops)
	}
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "paper-sim, live-mem or live-udp")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured time per run")
	trace := flag.Int("trace", 0, "1 = per-layer traced run, 0 = end-to-end run")
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	outDir := os.Getenv("PERFBENCH_OUT")
	if outDir == "" {
		outDir = filepath.Join(".bench_build", "perfbench-out")
	}
	traced := *trace == 1
	if traced {
		// Sample allocations finely enough to attribute them by module.
		runtime.MemProfileRate = 4096
	}

	r := newReport()
	if traced {
		for _, m := range perLayer {
			r.set(m.name, 0, m.unit)
		}
	}
	var attempted, failed int
	var err error
	switch *workload {
	case "paper-sim":
		attempted, failed, err = runPaperSim(*seed, *seconds, traced, outDir, r)
	case "live-mem", "live-udp":
		attempted, failed, err = runLive(*workload, *seed, *seconds, traced, outDir, r)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	want := endToEnd
	if traced {
		want = perLayer
	}
	for _, m := range want {
		if _, ok := r.metrics[m.name]; !ok {
			r.fail("metric %s was not measured", m.name)
		}
	}
	if err := r.write(os.Stdout, attempted, failed); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}
