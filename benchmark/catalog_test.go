package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// BENCHMARK.json is the contract the driver reads; the code must report
// exactly the workloads and metrics it lists, under the same units.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []struct {
			metricDef
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the code %s: %s", i, spec.Workloads[i], w.name, w.why)
		}
	}
	var e2e []metricDef
	setupBound, maxBound := 0.0, 0.0
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.metricDef)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
		if m.Bound > maxBound {
			maxBound = m.Bound
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s must have the largest bound: it has %v, the largest is %v", setupBound, maxBound)
	}
	if want := endToEndDefs(); !reflect.DeepEqual(e2e, want) {
		t.Errorf("end_to_end:\n json %v\n code %v", e2e, want)
	}
	if want := perLayerDefs(); !reflect.DeepEqual(spec.PerLayer, want) {
		t.Errorf("per_layer: BENCHMARK.json lists %d metrics, the code %d (or names, units or order differ)", len(spec.PerLayer), len(want))
	}
	if len(spec.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(spec.PerLayer))
	}
}
