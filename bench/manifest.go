package main

import (
	"bytes"
	"encoding/json"
)

// runSeconds is how long one driver-mode run times reps for.
const runSeconds = 10

// manifestJSON renders BENCHMARK.json from the workload and metric
// tables, so the file the driver reads cannot drift from the program
// it runs (a test compares the two).
func manifestJSON() []byte {
	type nameWhy struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	direction := func(higher bool) string {
		if higher {
			return "higher"
		}
		return "lower"
	}
	doc := struct {
		Command    []string  `json:"command"`
		Paths      []string  `json:"paths"`
		RunSeconds int       `json:"run_seconds"`
		Workloads  []nameWhy `json:"workloads"`
		EndToEnd   []metric  `json:"end_to_end"`
		PerLayer   []metric  `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "-C", "bench", "."},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, nameWhy{w.name, w.why})
	}
	for _, d := range endToEnd {
		bound := d.bound
		doc.EndToEnd = append(doc.EndToEnd, metric{d.name, d.unit, direction(d.higher), &bound})
	}
	for _, d := range allLayerDefs() {
		doc.PerLayer = append(doc.PerLayer, metric{d.name, d.unit, direction(d.higher), nil})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		panic(err) // static tables of strings and numbers always encode
	}
	return buf.Bytes()
}
