package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// TestManifestMatchesProgram keeps BENCHMARK.json and the metrics the
// program prints in step: same names, same order, same units.
func TestManifestMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var m struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %v; the program implements %d workloads", names, len(workloads))
	}
	var e2e []string
	for _, x := range m.EndToEnd {
		e2e = append(e2e, x.Name)
		if e2eUnits[x.Name] != x.Unit {
			t.Errorf("%s: unit %q in BENCHMARK.json, %q printed", x.Name, x.Unit, e2eUnits[x.Name])
		}
	}
	if !slices.Equal(e2e, e2eNames) {
		t.Errorf("end_to_end %v, program prints %v", e2e, e2eNames)
	}
	var layers []string
	for _, x := range m.PerLayer {
		layers = append(layers, x.Name)
		if u := layerUnit(x.Name); u != x.Unit {
			t.Errorf("%s: unit %q in BENCHMARK.json, %q printed", x.Name, x.Unit, u)
		}
	}
	if !slices.Equal(layers, layerNames) {
		t.Errorf("per_layer %v, program prints %v", layers, layerNames)
	}
}
