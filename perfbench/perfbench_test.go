package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestLedgerCoversRun runs one traced rep of every workload and checks
// its outputs and that the attributed layers cover at least 90% of Run's
// wall time, leaving at most 10% unattributed.
func TestLedgerCoversRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload once")
	}
	for _, name := range []string{"study", "service", "tracking"} {
		t.Run(name, func(t *testing.T) {
			res, err := tracedRep(workloads[name], 1, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range res.Problems {
				t.Errorf("output check: %s", p)
			}
			if cov := res.Layers["run.coverage"]; cov < 0.9 {
				t.Errorf("attributed layers cover %.1f%% of Run, want at least 90%%", 100*cov)
			}
		})
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metrics the program prints in
// step with the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not defined", w.Name)
		}
	}
	same := func(kind string, declared []struct{ Name, Unit string }, printed []metric) {
		if len(declared) != len(printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program prints %d", kind, len(declared), len(printed))
			return
		}
		for i, m := range declared {
			if m.Name != printed[i].name || m.Unit != printed[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, m.Name, m.Unit, printed[i].name, printed[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndMetrics(nil))
	layers := make([]metric, len(layerMetrics))
	for i, m := range layerMetrics {
		layers[i] = metric{name: m.name, unit: m.unit}
	}
	same("per_layer", spec.PerLayer, layers)
}
