package stencil

import (
	"fmt"
	"sync"
	"time"

	"netpart/internal/core"
	"netpart/internal/mmps"
	"netpart/internal/obs"
	"netpart/internal/repart"
)

// Metric names RunLiveMonitored and RunLiveFT record. Live metrics
// measure wall-clock time, unlike the spmd.Metric* virtual-time metrics.
const (
	MetricLiveCycleMs    = "live.cycle_ms"    // per-task per-cycle wall time
	MetricLiveExchangeMs = "live.exchange_ms" // wall time inside the cycle's two exchange parts
	MetricLiveElapsedMs  = "live.elapsed_ms"  // gauge: whole-run wall time
)

// LiveResult is the outcome of a real (wall-clock) distributed execution
// over an mmps transport world.
type LiveResult struct {
	// Elapsed is the wall-clock duration of the iteration loop (initial
	// distribution excluded, matching the paper's Table 2 timings).
	Elapsed time.Duration
	// Grid is the assembled final grid.
	Grid [][]float64
}

// RunLive executes the distributed stencil over real concurrent tasks —
// one goroutine per rank — communicating through the given mmps transports
// (UDP or in-memory). Rows are assigned by the partition vector; borders
// travel in network byte order (the MMPS coercion format).
//
// workFactor optionally emulates processor heterogeneity: tasks re-execute
// their row updates workFactor[rank]-1 extra times into a scratch buffer,
// making a rank behave like a proportionally slower processor. Nil means
// uniform speed.
//
//netpart:wallclock
func RunLive(world []mmps.Transport, vec core.Vector, v Variant, n, iters int, workFactor []int) (LiveResult, error) {
	return RunLiveMonitored(world, vec, v, n, iters, workFactor, nil, nil, nil)
}

// RunLiveMonitored is RunLive with observability attached: wall-clock
// per-cycle and border-exchange histograms (the MetricLive* names) into m,
// one span per task per cycle into rec, timestamped relative to the
// iteration loop's start so the Chrome trace aligns all ranks, and a
// per-cycle subscription — sink receives every rank's wall-clock cycle
// and border-exchange duration as it completes, from that rank's
// goroutine, the hookup point for the drift monitor (internal/obs/drift).
// Any of the three may be nil.
//
//netpart:wallclock
func RunLiveMonitored(world []mmps.Transport, vec core.Vector, v Variant, n, iters int, workFactor []int, m *obs.Registry, rec *obs.Recorder, sink obs.CycleSink) (LiveResult, error) {
	if err := checkLive(world, vec, n, workFactor); err != nil {
		return LiveResult{}, err
	}
	initial := NewGrid(n)
	res := newResultGrid(n)
	own := repart.NewOwners(vec)
	start := time.Now()
	hooks := liveObs{
		epoch:      start,
		rec:        rec,
		cycleMs:    m.Histogram(MetricLiveCycleMs),
		exchangeMs: m.Histogram(MetricLiveExchangeMs),
		cycles:     sink,
	}
	err := runRanks(world, func(tr mmps.Transport) error {
		r := newLiveRank(tr, initial, n, own, workFactor, hooks)
		if err := r.haloCycles(v, 0, iters); err != nil {
			return err
		}
		r.gather(res)
		return nil
	})
	elapsed := time.Since(start)
	m.Gauge(MetricLiveElapsedMs).Set(float64(elapsed) / float64(time.Millisecond))
	if err != nil {
		return LiveResult{}, err
	}
	if err := res.complete(); err != nil {
		return LiveResult{}, err
	}
	return LiveResult{Elapsed: elapsed, Grid: res.rows}, nil
}

// checkLive validates the arguments every live runtime shares.
func checkLive(world []mmps.Transport, vec core.Vector, n int, workFactor []int) error {
	if len(world) == 0 || len(world) != len(vec) {
		return fmt.Errorf("stencil: %d transports for %d vector entries", len(world), len(vec))
	}
	if vec.Sum() != n {
		return fmt.Errorf("stencil: vector sums to %d, want N=%d", vec.Sum(), n)
	}
	if workFactor != nil && len(workFactor) != len(world) {
		return fmt.Errorf("stencil: %d work factors for %d tasks", len(workFactor), len(world))
	}
	return nil
}

// runRanks runs body once per transport, one goroutine per rank, and
// returns the lowest failing rank's error.
func runRanks(world []mmps.Transport, body func(tr mmps.Transport) error) error {
	errs := make([]error, len(world))
	var wg sync.WaitGroup
	for rank := range world {
		rank := rank
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[rank] = body(world[rank])
		}()
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			return fmt.Errorf("stencil: rank %d: %w", rank, err)
		}
	}
	return nil
}

// liveObs carries the wall-clock observability hooks of a live rank.
// Zero-valued hooks disable recording (obs instruments are nil-safe).
type liveObs struct {
	epoch      time.Time
	rec        *obs.Recorder
	cycleMs    *obs.Histogram
	exchangeMs *obs.Histogram
	cycles     obs.CycleSink
}

// sinceMs is the wall time since the run epoch in milliseconds.
func (lo liveObs) sinceMs() float64 {
	return float64(time.Since(lo.epoch)) / float64(time.Millisecond)
}

// endCycle records one finished cycle that started at startMs: exchMs,
// the time spent inside the two exchange parts, and the whole cycle's
// duration, into the histograms and the sink, plus one trace span
// carrying args.
func (lo liveObs) endCycle(rank, it int, startMs, exchMs float64, args map[string]any) {
	durMs := lo.sinceMs() - startMs
	lo.exchangeMs.Observe(exchMs)
	lo.cycleMs.Observe(durMs)
	if lo.cycles != nil {
		lo.cycles.OnExchange(rank, it, exchMs)
		lo.cycles.OnCycle(rank, it, durMs)
	}
	if lo.rec != nil {
		lo.rec.Span("cycle", rank, startMs, durMs, args)
	}
}

// liveRank is one rank of RunLive* or RunLiveAdaptive: its band of the
// grid, its transport and the buffers its halo exchange reuses.
type liveRank struct {
	rankGrid
	tr   mmps.Transport
	reps int // row updates per interior row (the work factor)
	// scratch receives the work factor's repeated updates.
	scratch []float64
	// sendBuf and ghostVals are the halo frame buffer and the parse
	// scratch: Send copies its argument before returning and the parsed
	// values are copied into the ghost row, so one of each serves every
	// exchange of the run. Blocks are n columns wide before and after a
	// migration, so the buffers never grow.
	sendBuf   []byte
	ghostVals []float64
	hooks     liveObs
	// computeMs accumulates wall compute time for the repart planner.
	computeMs float64
	// exchMs accumulates the wall time of the current cycle's exchange.
	exchMs float64
}

func newLiveRank(tr mmps.Transport, initial [][]float64, n int, own repart.Owners, workFactor []int, hooks liveObs) *liveRank {
	rank := tr.Rank()
	reps := 1
	if workFactor != nil {
		reps = workFactor[rank]
	}
	return &liveRank{
		rankGrid:  newRankGrid(initial, n, own.Count(rank), own.First(rank)),
		tr:        tr,
		reps:      reps,
		scratch:   make([]float64, n),
		sendBuf:   make([]byte, 0, haloHeaderLen+8*n),
		ghostVals: make([]float64, 0, n),
		hooks:     hooks,
	}
}

// compute executes local rows lo..hi and adds their wall time to
// computeMs.
func (r *liveRank) compute(lo, hi int) {
	start := r.hooks.sinceMs()
	r.update(lo, hi, r.reps, r.scratch)
	r.computeMs += r.hooks.sinceMs() - start
}

// haloCycles runs cycles [from, to) of one live rank through the shared
// cycle (cycle.go) over the mmps halo exchange — the one exchange every
// RunLive* and RunLiveAdaptive rank executes, so the protocol
// netpartverify extracts from this function is the one they run.
//
// The exchange is odd-even pairwise: the neighbour pair (a, a+1) is
// active in part a%2, and within the pair the lower rank initiates (send
// south, then receive south's border) while the upper rank mirrors the
// order (receive north, then send north). Every send faces a partner
// already committed to the matching receive, so the exchange is
// deadlock-free even on a rendezvous transport; the simulator's
// send-both-then-receive-both order relies on transport buffering, and
// netpartverify finds the send-send cycle it forms at every P ≥ 2 under
// rendezvous semantics. Each border travels as one pooled halo frame
// (halo.go) whose row index and cycle the receiver checks. Sends read
// border rows and receives write ghost rows, so STEN-2's interior update
// may run between the parts, and the grid is bit-identical to the
// buffered order's. Only the time inside the two parts counts as exchange
// time.
//
//netpart:lockstep
func (r *liveRank) haloCycles(v Variant, from, to int) error {
	tr := r.tr
	rank, size := tr.Rank(), tr.Size()
	north, south := rank-1, rank+1
	hasNorth, hasSouth := north >= 0, south < size
	sendBuf, ghostVals := r.sendBuf, r.ghostVals
	recvGhost := func(src, wantRow, it int, into []float64) error {
		buf, err := tr.Recv(src)
		if err != nil {
			return err
		}
		g, cyc, vals, err := parseHaloFrame(buf, ghostVals[:0])
		if err != nil {
			return err
		}
		ghostVals = vals
		if g != wantRow || cyc != it || len(vals) != r.n {
			return fmt.Errorf("ghost row %d at cycle %d with %d values, want row %d cycle %d (%d values)",
				g, cyc, len(vals), wantRow, it, r.n)
		}
		copy(into, vals)
		mmps.Recycle(tr, buf)
		return nil
	}
	exchange := func(part, it int) error {
		start := r.hooks.sinceMs()
		if rank%2 == part && hasSouth {
			sendBuf = appendHaloFrame(sendBuf[:0], r.off+r.rows-1, it, r.cur.row(r.rows))
			if err := tr.Send(south, sendBuf); err != nil {
				return err
			}
			if err := recvGhost(south, r.off+r.rows, it, r.cur.row(r.rows+1)); err != nil {
				return err
			}
		}
		if rank%2 != part && hasNorth {
			if err := recvGhost(north, r.off-1, it, r.cur.row(0)); err != nil {
				return err
			}
			sendBuf = appendHaloFrame(sendBuf[:0], r.off, it, r.cur.row(1))
			if err := tr.Send(north, sendBuf); err != nil {
				return err
			}
		}
		r.exchMs += r.hooks.sinceMs() - start
		return nil
	}
	for it := from; it < to; it++ {
		start := r.hooks.sinceMs()
		r.exchMs = 0
		if err := r.cycle(v, it, exchange, r.compute); err != nil {
			return err
		}
		var args map[string]any
		if r.hooks.rec != nil {
			args = map[string]any{"iter": it}
		}
		r.hooks.endCycle(rank, it, start, r.exchMs, args)
	}
	return nil
}
