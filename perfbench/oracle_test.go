package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestOracleCatchesCorruptedReference runs the self-test every benchmark
// run starts with: each output check passes on the true reference and
// fails on one with a single flipped bit.
func TestOracleCatchesCorruptedReference(t *testing.T) {
	if err := oracleSelfTest(); err != nil {
		t.Fatal(err)
	}
}

// TestMetricTablesMatchBenchmarkJSON checks that the metrics the benchmark
// prints are exactly those BENCHMARK.json declares, with the same units.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, declared []entry, printed map[string]string) {
		if len(declared) != len(printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, perfbench prints %d", what, len(declared), len(printed))
		}
		for _, e := range declared {
			if u, ok := printed[e.Name]; !ok || u != e.Unit {
				t.Errorf("%s: %s declared in %q, printed in %q", what, e.Name, e.Unit, u)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, e2eUnits)
	same("per_layer", spec.PerLayer, layerUnits)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, perfbench runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
}
