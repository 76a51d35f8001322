package main

import (
	"runtime"
	"testing"

	"netpart/internal/core"
	"netpart/internal/mmps"
	"netpart/internal/obs"
	"netpart/internal/stencil"
)

// liveOnce runs one in-memory live stencil, optionally through the timing
// decorator, and returns the grid, the transport's message count, and the
// mallocs and bytes allocated per cycle.
func liveOnce(t *testing.T, wrap bool, n, cycles int) (grid [][]float64, msgs int64, mallocs, bytes float64, timed []*timedTransport) {
	t.Helper()
	reg := obs.NewRegistry()
	eps, err := mmps.NewLocalWorld(2, mmps.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	world := make([]mmps.Transport, len(eps))
	for i, ep := range eps {
		world[i] = ep
	}
	defer func() {
		for _, ep := range eps {
			_ = ep.Close() // the run's result is already in hand
		}
	}()
	if wrap {
		tr := newTracer()
		for i := range world {
			tt := newTimedTransport(world[i], tr, 0, 0, 4*cycles)
			timed = append(timed, tt)
			world[i] = tt
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	res, err := stencil.RunLive(world, core.Vector{2 * n / 3, n - 2*n/3}, stencil.STEN2, n, cycles, []int{1, 2})
	runtime.ReadMemStats(&ms1)
	if err != nil {
		t.Fatal(err)
	}
	return res.Grid, reg.Counter(mmps.MetricMsgsSent).Value(),
		float64(ms1.Mallocs-ms0.Mallocs) / float64(cycles),
		float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(cycles), timed
}

// TestTimedTransportIsTransparent checks that the decorator changes
// nothing the program can observe: the wrapped run's grid is bit-identical,
// it sends the same messages, and it allocates no more per cycle — which
// shows Recycle still reaches the in-memory free list (without it every
// Send would allocate a fresh halo buffer).
func TestTimedTransportIsTransparent(t *testing.T) {
	const n, cycles = 240, 300
	want := stencil.Sequential(stencil.NewGrid(n), cycles)
	minPlain, minPlainBytes := 1e18, 1e18
	minWrapped, minWrappedBytes := 1e18, 1e18
	for rep := 0; rep < 3; rep++ {
		grid, msgs, mallocs, bytes, _ := liveOnce(t, false, n, cycles)
		if !gridsEqual(grid, want) {
			t.Fatal("unwrapped run differs from the sequential reference")
		}
		wgrid, wmsgs, wmallocs, wbytes, timed := liveOnce(t, true, n, cycles)
		if !gridsEqual(wgrid, want) {
			t.Fatal("wrapped run is not bit-identical to the sequential reference")
		}
		if wmsgs != msgs {
			t.Fatalf("wrapped run sent %d messages, unwrapped %d", wmsgs, msgs)
		}
		sends := 0
		for _, tt := range timed {
			for _, op := range tt.ops {
				if op.Name == spanSend {
					sends++
				}
			}
			if tt.errors != 0 {
				t.Fatalf("decorator recorded %d errors", tt.errors)
			}
		}
		if int64(sends) != msgs {
			t.Fatalf("decorator recorded %d sends, transport counted %d", sends, msgs)
		}
		minPlain, minPlainBytes = min(minPlain, mallocs), min(minPlainBytes, bytes)
		minWrapped, minWrappedBytes = min(minWrapped, wmallocs), min(minWrappedBytes, wbytes)
	}
	// Blocked receives arm a timer, so mallocs per cycle vary with timing by
	// about one; a lost free list adds one halo buffer (8·n bytes) per message.
	if minWrapped > minPlain+1.5 {
		t.Errorf("wrapped run makes %.2f mallocs per cycle, unwrapped %.2f", minWrapped, minPlain)
	}
	if minWrappedBytes > minPlainBytes+4*n {
		t.Errorf("wrapped run allocates %.0f B per cycle, unwrapped %.0f", minWrappedBytes, minPlainBytes)
	}
}
