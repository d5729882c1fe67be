package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// BENCHMARK.json at the repository root declares the metrics this program
// prints; the two lists must agree name for name and unit for unit.
func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit string
			Bound      float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	var e2e, layer []metricDef
	maxBound, setupBound := 0.0, 0.0
	for _, m := range decl.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	for _, m := range decl.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program prints %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s #%d: BENCHMARK.json declares %v, the program prints %v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", e2e, endToEnd)
	same("per_layer", layer, perLayer())
	if setupBound == 0 || setupBound < maxBound || maxBound > 0.25 {
		t.Errorf("bounds: setup_s %v, largest %v; setup_s must hold the largest, at most 0.25", setupBound, maxBound)
	}
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloads) {
		t.Errorf("BENCHMARK.json declares workloads %v, the program runs %v", names, workloads)
	}
}

func TestReportRequiresExactlyTheDefinedMetrics(t *testing.T) {
	defs := []metricDef{{"a", "s"}, {"b", "ms"}}
	rep := newReport(defs)
	rep.outcome(1)
	rep.set("a", 1)
	if _, err := rep.finish(); err == nil {
		t.Error("a missing metric went unnoticed")
	}
	rep.set("b", 2)
	res, err := rep.finish()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted != 1 || res.Metrics["b"] != (metricValue{2, "ms"}) {
		t.Errorf("result = %+v", res)
	}
	rep.set("c", 3)
	if _, err := rep.finish(); err == nil {
		t.Error("an undeclared metric went unnoticed")
	}
}
