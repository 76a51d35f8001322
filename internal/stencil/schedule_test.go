package stencil

import (
	"fmt"
	"testing"

	"netpart/internal/balance"
	"netpart/internal/core"
	"netpart/internal/cost"
	"netpart/internal/model"
	"netpart/internal/simnet"
)

// TestSimElapsedMatchesNumericSchedule pins the schedule-only path to the
// numeric one: for every (N, vector, variant) case SimElapsed's elapsed
// virtual time must equal the numeric run's exactly (==, no tolerance), so
// a drifted charge, send size or op order in either path fails it. The
// numeric reference is RunSim, or RunSimAdaptive without rebalancing when
// the case carries simulator options; its grid is checked once against
// Sequential.
func TestSimElapsedMatchesNumericSchedule(t *testing.T) {
	net := model.PaperTestbed()
	decompose := func(cfg cost.Config, n int) core.Vector {
		vec, err := core.Decompose(net, cfg, n, model.OpFloat)
		if err != nil {
			t.Fatal(err)
		}
		return vec
	}
	equal12, err := balance.EqualVector(1200, 12)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		cfg   cost.Config
		vec   core.Vector
		n     int
		iters int
		opts  []simnet.Option
	}{
		{"single task", paperConfig(1, 0), core.Vector{24}, 24, 4, nil},
		// One- and two-row ranks take STEN-2's rows > 2 and rows > 1
		// branches both ways.
		{"1- and 2-row ranks", paperConfig(4, 0), core.Vector{1, 2, 3, 1}, 7, 5, nil},
		{"single-row ranks", paperConfig(6, 2), decompose(paperConfig(6, 2), 8), 8, 5, nil},
		{"Eq. 3 6+6 N=600", paperConfig(6, 6), decompose(paperConfig(6, 6), 600), 600, 10, nil},
		{"equal 12-way N=1200", paperConfig(6, 6), equal12, 1200, 10, nil},
		{"jittered 6+6 N=300", paperConfig(6, 6), decompose(paperConfig(6, 6), 300), 300, 10,
			[]simnet.Option{simnet.WithJitter(0.2, 42)}},
	}
	for _, tc := range cases {
		want := Sequential(NewGrid(tc.n), tc.iters)
		for _, v := range []Variant{STEN1, STEN2} {
			name := fmt.Sprintf("%s/%s", tc.name, v)
			var ref SimResult
			if tc.opts == nil {
				ref, err = RunSim(net, tc.cfg, tc.vec, v, tc.n, tc.iters)
			} else {
				var ar AdaptiveResult
				ar, err = RunSimAdaptive(net, tc.cfg, tc.vec, v, tc.n, tc.iters, AdaptiveOptions{SimOptions: tc.opts})
				ref = ar.SimResult
			}
			if err != nil {
				t.Fatalf("%s: numeric run: %v", name, err)
			}
			if !gridsEqual(ref.Grid, want) {
				t.Errorf("%s: numeric grid differs from Sequential", name)
			}
			got, err := SimElapsed(net, tc.cfg, tc.vec, v, tc.n, tc.iters, tc.opts...)
			if err != nil {
				t.Fatalf("%s: SimElapsed: %v", name, err)
			}
			if got != ref.ElapsedMs {
				t.Errorf("%s: SimElapsed = %v ms, numeric run = %v ms", name, got, ref.ElapsedMs)
			}
			if tc.opts != nil {
				// The options must reach the simulator.
				plain, err := SimElapsed(net, tc.cfg, tc.vec, v, tc.n, tc.iters)
				if err != nil {
					t.Fatal(err)
				}
				if plain == got {
					t.Errorf("%s: simulator options left the elapsed time unchanged", name)
				}
			}
		}
	}
}

func TestSimElapsedValidatesInputs(t *testing.T) {
	net := model.PaperTestbed()
	if _, err := SimElapsed(net, paperConfig(2, 0), core.Vector{5, 5}, STEN1, 12, 1); err == nil {
		t.Error("vector not summing to N accepted")
	}
	if _, err := SimElapsed(net, paperConfig(2, 0), core.Vector{5, 5, 2}, STEN1, 12, 1); err == nil {
		t.Error("vector/config task-count mismatch accepted")
	}
}
