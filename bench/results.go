package main

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"sort"

	"hades/bench/layers"
)

// resultsDoc is the document a full run persists and -compare reads.
type resultsDoc struct {
	Benchmark string `json:"benchmark"`
	// Claim is the gain the run's commit claims, by metric and workload
	// name. The commit that defines the benchmark claims none.
	Claim      *string           `json:"claim"`
	Seed       int64             `json:"seed"`
	Quick      bool              `json:"quick,omitempty"`
	GoVersion  string            `json:"go_version"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Workloads  []*workloadResult `json:"workloads"`
	// Layers holds the rows that do not depend on the workload: the
	// isolated drivers and the rate sweep.
	Layers map[string]Metric `json:"layers,omitempty"`
}

// allLayerDefs lists every per-layer metric, ledger order: workload
// counts, traced run, CPU shares, plane ablation, isolated drivers,
// rate sweep. BENCHMARK.json's per_layer list is this list.
func allLayerDefs() []layerDef {
	defs := append([]layerDef(nil), countDefs...)
	defs = append(defs, tracedDefs...)
	for _, l := range append(append([]string(nil), shareLayers...), "runtime_gc", "other") {
		defs = append(defs, layerDef{"cpu_share." + l, "ratio", false, "host_ops_per_s"})
	}
	defs = append(defs, ablationDefs...)
	for _, d := range layers.Defs {
		defs = append(defs, layerDef{d.Name, d.Unit, false, d.Moves})
	}
	return append(defs, sweepDefs()...)
}

// withUnits attaches each value's unit from the definitions; a value
// without a definition is a bug in the benchmark.
func withUnits(values map[string]float64) (map[string]Metric, error) {
	units := map[string]string{}
	for _, d := range allLayerDefs() {
		units[d.name] = d.unit
	}
	out := make(map[string]Metric, len(values))
	for name, v := range values {
		unit, ok := units[name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %q has no definition", name)
		}
		out[name] = Metric{Value: v, Unit: unit}
	}
	return out, nil
}

// fillLedger produces the workload's per-layer rows: the counts of the
// reference rep, the traced rep, the plane ablation — and in driver
// mode, where one run must carry every per-layer metric, the rows that
// do not depend on the workload too.
func fillLedger(out *workloadResult, w workload, p protocol, path string, ref *rep, reps []*rep) error {
	runs := make([]float64, len(reps))
	for i, r := range reps {
		runs[i] = r.runS
	}
	_, base, _ := quartiles(runs)
	values := maps.Clone(ref.counts)
	traced, err := tracedRun(w, p, path, ref, base)
	if err != nil {
		return err
	}
	ablReps := 3
	if p.quick || p.driver() {
		ablReps = 1
	}
	ablated, err := ablate(w, p, ref, base, ablReps)
	if err != nil {
		return err
	}
	maps.Copy(values, traced)
	maps.Copy(values, ablated)
	if p.driver() {
		global, err := globalLedger(p)
		if err != nil {
			return err
		}
		maps.Copy(values, global)
	}
	out.PerLayer, err = withUnits(values)
	return err
}

// globalLedger runs the isolated drivers and the rate sweep.
func globalLedger(p protocol) (map[string]float64, error) {
	kv, _ := workloadByName("kv-steady")
	full, err := writeScenario(outDir, kv.spec(p.seed, kv.horizonMs*p.scale), "")
	if err != nil {
		return nil, err
	}
	short, err := writeScenario(outDir, kv.spec(p.seed, 1000*p.scale+drainMs), "_short")
	if err != nil {
		return nil, err
	}
	values, err := layers.Run(p.layerScale, layers.Inputs{Scenario: full, Short: short})
	if err != nil {
		return nil, err
	}
	window := 1000 * p.scale
	if p.driver() {
		window = 500 // a driver-mode run has to fit the whole ledger in one budget
	}
	swept, err := sweep(p.seed, window)
	if err != nil {
		return nil, err
	}
	maps.Copy(values, swept)
	return values, nil
}

// runFull runs the full protocol on the selected workloads, prints
// every metric by name with its unit, and persists the results.
func runFull(sel []workload, p protocol, outPath string, stdout, stderr io.Writer) int {
	doc := resultsDoc{Benchmark: "hades-two-clock", Seed: p.seed, Quick: p.quick,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	for _, w := range sel {
		res, err := measureWorkload(w, p, true, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		doc.Workloads = append(doc.Workloads, res)
		printWorkload(stdout, res)
	}
	global, err := globalLedger(p)
	if err == nil {
		doc.Layers, err = withUnits(global)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, "\n== layers (isolated drivers, rate sweep) ==")
	printLayer(stdout, doc.Layers)

	if outPath == "" {
		outPath = filepath.Join(outDir, "results.json")
	}
	data, err := json.MarshalIndent(doc, "", " ")
	if err == nil {
		err = os.WriteFile(outPath, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stderr, "bench: all checks passed; results in %s\n", outPath)
	return 0
}

func printWorkload(w io.Writer, r *workloadResult) {
	fmt.Fprintf(w, "\n== %s (seed %d, horizon %g vms) ==\n", r.Name, r.Seed, r.HorizonMs)
	fmt.Fprintf(w, "attempted=%d ops=%d lost=%d degraded=%d events=%d latency_samples=%d report_sha256=%.12s\n",
		r.Attempted, r.Ops, r.Lost, r.Degraded, r.Events, r.Samples, r.Digest)
	fmt.Fprintf(w, "%-26s %14s %14s %14s %3s  %s\n", "end-to-end", "median", "q1", "q3", "n", "unit")
	for _, d := range endToEnd {
		st := r.EndToEnd[d.name]
		fmt.Fprintf(w, "%-26s %14.6g %14.6g %14.6g %3d  %s\n", d.name, st.Median, st.Q1, st.Q3, st.N, st.Unit)
	}
	printLayer(w, r.PerLayer)
}

func printLayer(w io.Writer, m map[string]Metric) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-42s %14s  %s\n", "per-layer", "value", "unit")
	for _, name := range names {
		fmt.Fprintf(w, "%-42s %14.6g  %s\n", name, m[name].Value, m[name].Unit)
	}
}
