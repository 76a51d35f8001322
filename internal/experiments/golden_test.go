package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"netpart/internal/stencil"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current implementation")

// TestPaperArtefactsGolden pins the paper's artefacts as printed: the
// rendered Table 2 and the rendered Fig. 3 curves at N=600 for STEN-1 and
// STEN-2 must match testdata/ byte for byte, with the experiment engine
// both serial (Jobs 1) and wide (Jobs 8). Every simulated time in them is
// printed, so a drift in the simulated schedule (a charge, a message size,
// the op order) or in the partitioner's choices shows up here. After an
// intended change, regenerate with
//
//	go test ./internal/experiments -run TestPaperArtefactsGolden -update
//
// and review the diff of testdata/.
func TestPaperArtefactsGolden(t *testing.T) {
	const n = 600
	for _, jobs := range []int{1, 8} {
		e := env(t).Clone()
		e.Jobs = jobs
		rows, err := Table2(e)
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]string{"table2.golden": RenderTable2(rows)}
		for _, v := range []stencil.Variant{stencil.STEN1, stencil.STEN2} {
			pts, err := Fig3(e, n, v)
			if err != nil {
				t.Fatal(err)
			}
			got[fmt.Sprintf("fig3_n%d_%s.golden", n, v)] = RenderFig3(pts, n, v)
		}
		for name, out := range got {
			path := filepath.Join("testdata", name)
			if *update {
				if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if out != string(want) {
				t.Errorf("jobs=%d: %s differs from the golden file:\n--- got ---\n%s--- want ---\n%s", jobs, path, out, want)
			}
		}
	}
}
