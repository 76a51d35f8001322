package stencil

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netpart/internal/core"
	"netpart/internal/mmps"
	"netpart/internal/model"
	"netpart/internal/obs"
)

// bitIdentical fails the test unless got equals want bit for bit.
func bitIdentical(t *testing.T, what string, got, want [][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: row %d has %d values, want %d", what, i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				t.Fatalf("%s: grid[%d][%d] = %v, want %v", what, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestRankCycleEdgeCases runs every runtime on bands of one and two rows,
// where STEN-2 has no interior to overlap and the cycle's border-row
// branches carry the whole update, and on an uneven vector. The small
// bands sit within five rows of the hot edge, so the five iterations
// reach them. Each runtime must match its sequential reference bit for
// bit, and the simulated runtimes that share a schedule must report the
// same elapsed time.
func TestRankCycleEdgeCases(t *testing.T) {
	const iters = 5
	cases := []struct {
		vec    core.Vector
		p1, p2 int // paper-testbed configuration with len(vec) tasks
	}{
		{core.Vector{1, 2, 3, 1}, 2, 2},
		{core.Vector{2, 1, 4}, 2, 1},
	}
	net := model.PaperTestbed()
	for _, tc := range cases {
		n := tc.vec.Sum()
		cfg := paperConfig(tc.p1, tc.p2)
		want := Sequential(NewGrid(n), iters)
		for _, v := range []Variant{STEN1, STEN2} {
			t.Run(fmt.Sprintf("%v/%v", tc.vec, v), func(t *testing.T) {
				sim, err := RunSim(net, cfg, tc.vec, v, n, iters)
				if err != nil {
					t.Fatal(err)
				}
				bitIdentical(t, "RunSim", sim.Grid, want)
				elapsed, err := SimElapsed(net, cfg, tc.vec, v, n, iters)
				if err != nil {
					t.Fatal(err)
				}
				if elapsed != sim.ElapsedMs {
					t.Errorf("SimElapsed = %v ms, RunSim = %v ms", elapsed, sim.ElapsedMs)
				}
				ad, err := RunSimAdaptive(net, cfg, tc.vec, v, n, iters, AdaptiveOptions{})
				if err != nil {
					t.Fatal(err)
				}
				bitIdentical(t, "RunSimAdaptive", ad.Grid, want)
				if ad.ElapsedMs != sim.ElapsedMs {
					t.Errorf("RunSimAdaptive = %v ms, RunSim = %v ms", ad.ElapsedMs, sim.ElapsedMs)
				}
				conv, err := RunSimUntil(net, cfg, tc.vec, v, n, 0, iters)
				if err != nil {
					t.Fatal(err)
				}
				seqGrid, seqIters, seqDelta := SequentialUntil(NewGrid(n), 0, iters)
				bitIdentical(t, "RunSimUntil", conv.Grid, seqGrid)
				if conv.Iterations != seqIters || conv.FinalDelta != seqDelta {
					t.Errorf("RunSimUntil: %d iterations, delta %v; sequential %d, %v",
						conv.Iterations, conv.FinalDelta, seqIters, seqDelta)
				}

				world := localWorld(t, len(tc.vec))
				defer closeWorld(world)
				live, err := RunLive(world, tc.vec, v, n, iters, nil)
				if err != nil {
					t.Fatal(err)
				}
				bitIdentical(t, "RunLive", live.Grid, want)
				la, err := RunLiveAdaptive(world, tc.vec, v, n, iters, LiveAdaptiveOptions{})
				if err != nil {
					t.Fatal(err)
				}
				bitIdentical(t, "RunLiveAdaptive", la.Grid, want)
				ft, err := RunLiveFT(world, tc.vec, v, n, iters, FTOptions{DetectTimeout: 5 * time.Second})
				if err != nil {
					t.Fatal(err)
				}
				bitIdentical(t, "RunLiveFT", ft.Grid, want)
			})
		}
	}
}

// transportClock wraps one rank's transport and accumulates the wall
// time the rank spends inside transport calls, blocked receives included.
type transportClock struct {
	mmps.Transport
	ns *atomic.Int64
}

func (c transportClock) Send(dst int, data []byte) error {
	defer c.since(time.Now())
	return c.Transport.Send(dst, data)
}

func (c transportClock) Recv(src int) ([]byte, error) {
	defer c.since(time.Now())
	return c.Transport.Recv(src)
}

func (c transportClock) RecvAny(d time.Duration) (int, []byte, error) {
	defer c.since(time.Now())
	return c.Transport.RecvAny(d)
}

func (c transportClock) Recycle(buf []byte) { mmps.Recycle(c.Transport, buf) }

func (c transportClock) since(start time.Time) { c.ns.Add(int64(time.Since(start))) }

// exchangeTally is a cycle sink over a clocked world: it sums the
// reported exchange and cycle times, and the time each rank spent inside
// the transport during the cycles it reports.
type exchangeTally struct {
	world []mmps.Transport
	inTr  []atomic.Int64

	mu                            sync.Mutex
	exchanges, cycles             int
	exchangeMs, cycleMs, transpMs float64
}

func newExchangeTally(t *testing.T, ranks int) *exchangeTally {
	s := &exchangeTally{world: localWorld(t, ranks), inTr: make([]atomic.Int64, ranks)}
	t.Cleanup(func() { closeWorld(s.world) })
	for r, tr := range s.world {
		s.world[r] = transportClock{Transport: tr, ns: &s.inTr[r]}
	}
	return s
}

func (s *exchangeTally) OnCycle(task, _ int, ms float64) {
	inTr := s.inTr[task].Swap(0)
	s.mu.Lock()
	s.cycles++
	s.cycleMs += ms
	s.transpMs += float64(inTr) / float64(time.Millisecond)
	s.mu.Unlock()
}

func (s *exchangeTally) OnExchange(_, _ int, ms float64) {
	s.mu.Lock()
	s.exchanges++
	s.exchangeMs += ms
	s.mu.Unlock()
}

// TestLiveExchangeExcludesCompute pins what "exchange" means in all three
// live runtimes: only the time inside the two exchange parts, never the
// STEN-2 interior update between them. The work factor makes the interior
// update dominate the cycle, so an exchange that counted it would take
// nearly the whole cycle; the exchange must stay under half. Time blocked
// in the transport is exchange time however long it lasts, and how long
// depends on scheduling — under CPU contention the two ranks serialize and
// each waits out the other's whole compute — so the test takes the time
// spent inside transport calls out of both sums. Each runtime must also
// report one exchange per rank-cycle.
func TestLiveExchangeExcludesCompute(t *testing.T) {
	const n, iters = 192, 24
	vec := core.Vector{n / 2, n / 2}
	work := []int{16, 16}
	runs := []struct {
		name string
		run  func(world []mmps.Transport, sink obs.CycleSink) error
	}{
		{"RunLiveMonitored", func(world []mmps.Transport, sink obs.CycleSink) error {
			_, err := RunLiveMonitored(world, vec, STEN2, n, iters, work, nil, nil, sink)
			return err
		}},
		{"RunLiveAdaptive", func(world []mmps.Transport, sink obs.CycleSink) error {
			_, err := RunLiveAdaptive(world, vec, STEN2, n, iters, LiveAdaptiveOptions{WorkFactor: work, Cycles: sink})
			return err
		}},
		{"RunLiveFT", func(world []mmps.Transport, sink obs.CycleSink) error {
			// No checkpoint falls inside the run: a buddy's checkpoint frame
			// dispatched while awaiting a ghost row is exchange time, and
			// decoding a whole block would blur what this test measures.
			// A generous detection budget keeps a loaded machine from
			// turning a slow partner into a verdict.
			_, err := RunLiveFT(world, vec, STEN2, n, iters, FTOptions{
				WorkFactor: work, Cycles: sink, CheckpointEvery: 2 * iters, DetectTimeout: 5 * time.Second,
			})
			return err
		}},
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			tally := newExchangeTally(t, len(vec))
			if err := r.run(tally.world, tally); err != nil {
				t.Fatal(err)
			}
			if tally.exchanges != 2*iters || tally.cycles != 2*iters {
				t.Fatalf("%d exchanges and %d cycles reported, want %d of each", tally.exchanges, tally.cycles, 2*iters)
			}
			exch, cycle := tally.exchangeMs-tally.transpMs, tally.cycleMs-tally.transpMs
			if exch >= cycle/2 {
				t.Errorf("exchange %.3f ms of %.3f ms cycle time outside transport calls: the exchange counts compute", exch, cycle)
			}
		})
	}
}
