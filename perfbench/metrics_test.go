package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestMetricListsMatchBenchmarkJSON keeps the metric names and units the
// program reports in step with BENCHMARK.json at the repository root.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found next to this directory")
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ name, unit string }, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: program %s (%s), BENCHMARK.json %s (%s)", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
}
