package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONDeclaresReportedMetrics keeps BENCHMARK.json and the
// program in step: the same workloads, and the same metrics with the same
// units, in the same order.
func TestBenchmarkJSONDeclaresReportedMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		kind     string
		declared []metric
		reported []metricDef
	}{{"end_to_end", bj.EndToEnd, endToEnd}, {"per_layer", bj.PerLayer, perLayer}} {
		if len(c.declared) != len(c.reported) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program reports %d", c.kind, len(c.declared), len(c.reported))
			continue
		}
		for i, m := range c.declared {
			if m.Name != c.reported[i].name || m.Unit != c.reported[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), program %s (%s)", c.kind, i, m.Name, m.Unit, c.reported[i].name, c.reported[i].unit)
			}
		}
	}
}
