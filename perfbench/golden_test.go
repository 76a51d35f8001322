package main

import (
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"testing"

	"netpart/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite golden.json from the current implementation")

// TestPaperSimGolden regenerates the paper's artefacts once and compares
// every simulated time with golden.json; -update rewrites the file.
func TestPaperSimGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates Table 2, Fig. 3 and E9")
	}
	e, err := experiments.NewEnv()
	if err != nil {
		t.Fatal(err)
	}
	g, err := regenerate(e, nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := g.times()
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("golden.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("simulated times differ from golden.json:\n got %+v\nwant %+v", got, want)
	}
}

// TestReplayMatchesParallelRegeneration is the fidelity check of the traced
// run: the serial replay reproduces exactly the simulated times the
// parallel experiment engine reports.
func TestReplayMatchesParallelRegeneration(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates Table 2, Fig. 3 and E9 twice")
	}
	e, err := experiments.NewEnv()
	if err != nil {
		t.Fatal(err)
	}
	g, err := regenerate(e, nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	st, err := replay(e, newTracer(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st.times, g.times()) {
		t.Fatalf("replay times differ:\n replay %+v\nparallel %+v", st.times, g.times())
	}
	if gap, fig3Err := g.quality(); st.gap != gap || st.fig3Err != fig3Err {
		t.Fatalf("replay quality (%v, %v), parallel (%v, %v)", st.gap, st.fig3Err, gap, fig3Err)
	}
	if runs, _ := g.work(); runs != st.runs {
		t.Fatalf("replay simulated %d runs, regeneration counts %d", st.runs, runs)
	}
}
