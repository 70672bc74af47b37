package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"hades/internal/scenario"
)

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// Same seed, byte-identical scenario files; another seed, another
// file; and every generated file is one scenario.Load accepts.
func TestScenariosFromSeed(t *testing.T) {
	for _, w := range workloads {
		gen := func(seed int64) []byte {
			path, err := writeScenario(t.TempDir(), w.spec(seed, w.horizonMs), "")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := scenario.Load(path); err != nil {
				t.Errorf("%s seed %d: generated file rejected: %v", w.name, seed, err)
			}
			return readFile(t, path)
		}
		a, again, b := gen(7), gen(7), gen(8)
		if !bytes.Equal(a, again) {
			t.Errorf("%s: seed 7 generated two different files", w.name)
		}
		if bytes.Equal(a, b) {
			t.Errorf("%s: seeds 7 and 8 generated the same file", w.name)
		}
	}
	for _, rate := range sweepRates {
		path, err := writeScenario(t.TempDir(), sweepSpec(1, rate, 100), "")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := scenario.Load(path); err != nil {
			t.Errorf("sweep at %g: generated file rejected: %v", rate, err)
		}
	}
}

// Every load block ends at least drainMs before the horizon, so
// in-flight ops complete inside the run.
func TestLoadBlocksDrain(t *testing.T) {
	for _, w := range workloads {
		s := w.spec(1, w.horizonMs)
		var blocks []scenario.LoadSpec
		if s.Shards != nil {
			blocks = append(blocks, s.Shards.Load...)
		}
		if s.PubSub != nil {
			blocks = append(blocks, s.PubSub.Load...)
		}
		for _, l := range blocks {
			if l.EndMs <= 0 || l.EndMs > s.HorizonMs-drainMs {
				t.Errorf("%s: load %q ends at %g ms, horizon %g ms", w.name, l.Name, l.EndMs, s.HorizonMs)
			}
		}
	}
}

// chdirTemp runs the test in a scratch directory, where the program
// writes its out/ tree.
func chdirTemp(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	})
}

// A -quick run of all five workloads: every verifier, the determinism
// checks between reps, the traced rep and the ledger; then the results
// document compares equal to itself.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload at 1/10 size (about 10 s)")
	}
	chdirTemp(t)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-quick", "-out", "quick.json"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-quick exited %d:\n%s", code, stderr.String())
	}
	doc, err := readResults("quick.json")
	if err != nil {
		t.Fatal(err)
	}
	if doc.Claim != nil {
		t.Errorf("the defining commit claims no gain, got %q", *doc.Claim)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the results, want %d", len(doc.Workloads), len(workloads))
	}
	perWorkload := len(countDefs) + len(tracedDefs) + len(shareLayers) + 2 + len(ablationDefs)
	for _, w := range doc.Workloads {
		for _, d := range endToEnd {
			if st, ok := w.EndToEnd[d.name]; !ok || st.Median <= 0 || st.Unit != d.unit {
				t.Errorf("%s: %s = %+v, want a positive value in %s", w.Name, d.name, st, d.unit)
			}
			if !strings.Contains(stdout.String(), d.name) {
				t.Errorf("%s not printed", d.name)
			}
		}
		if len(w.PerLayer) != perWorkload {
			t.Errorf("%s: %d per-layer rows, want %d", w.Name, len(w.PerLayer), perWorkload)
		}
		if w.Lost != 0 {
			t.Errorf("%s: %d ops never completed", w.Name, w.Lost)
		}
		if _, err := os.Stat(filepath.Join(outDir, "trace_"+w.Name+".json")); err != nil {
			t.Errorf("%s: no span trace written: %v", w.Name, err)
		}
	}
	if got, want := len(doc.Layers)+perWorkload, len(allLayerDefs()); got != want {
		t.Errorf("%d per-layer metrics measured, %d defined", got, want)
	}
	if code := run([]string{"-compare", "quick.json", "quick.json"}, io.Discard, &stderr); code != 0 {
		t.Errorf("a results document compared worse than itself (exit %d)", code)
	}
}

// Driver mode prints one JSON object with exactly the contract's keys
// as the last line of standard output.
func TestDriverLine(t *testing.T) {
	if testing.Short() {
		t.Skip("runs rt-pipeline four times at 1/10 size")
	}
	chdirTemp(t)
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", "rt-pipeline", "--seed", "3", "--seconds", "1", "--trace", "0", "-quick"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("driver mode exited %d:\n%s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := line[key]; !ok {
			t.Errorf("driver line has no %q", key)
		}
	}
	var metrics map[string]Metric
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(line) != 4 || len(metrics) != len(endToEnd) {
		t.Errorf("driver line has %d keys and %d metrics, want 4 and %d", len(line), len(metrics), len(endToEnd))
	}
}

func stat(q1, med, q3 float64) Stat { return Stat{Median: med, Q1: q1, Q3: q3, N: 5} }

func TestJudge(t *testing.T) {
	point := func(v float64) Stat { return stat(v, v, v) }
	lower, _ := endDefByName("allocs_per_op")   // 5%, lower is better
	higher, _ := endDefByName("host_ops_per_s") // higher is better
	setup, _ := endDefByName("setup_s")         // 25% or 2 ms
	for _, tc := range []struct {
		name      string
		def       endDef
		base, cur Stat
		want      verdict
	}{
		{"equal", lower, point(100), point(100), same},
		{"exactly at the bound", lower, point(100), point(100 * (1 + lower.bound)), same},
		{"past the bound", lower, point(100), point(100*(1+lower.bound) + 0.01), worse},
		{"better past the bound", lower, point(100), point(100*(1-lower.bound) - 0.01), better},
		{"higher is better: drop past the bound", higher, point(1000), point(1000*(1-higher.bound) - 1), worse},
		{"higher is better: rise past the bound", higher, point(1000), point(1000*(1+higher.bound) + 1), better},
		{"higher is better: drop inside the bound", higher, point(1000), point(1000 * (1 - higher.bound/2)), same},
		{"under the absolute floor", setup, point(0.0002), point(0.0019), same},
		{"past the absolute floor", setup, point(0.0002), point(0.0023), worse},
		{"past the relative bound above the floor", setup, point(0.1), point(0.126), worse},
		{"median past the bound, near quartile not", lower, point(100), stat(100, 100*(1+lower.bound)+2, 115), unresolved},
		{"median inside the bound, spread wider than it", lower, stat(90, 100, 110), point(101), unresolved},
		{"whole range past the bound", lower, stat(99, 100, 101), stat(106, 107, 108), worse},
	} {
		if got := judge(tc.def, tc.base, tc.cur); got != tc.want {
			t.Errorf("%s: judge = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareExitCode(t *testing.T) {
	write := func(name string, allocs float64) string {
		doc := resultsDoc{Workloads: []*workloadResult{{Name: "kv-steady", Seed: 1, HorizonMs: 10000,
			EndToEnd: map[string]Stat{"allocs_per_op": stat(allocs, allocs, allocs)},
			PerLayer: map[string]Metric{"netsim.msgs_per_op": {Value: allocs / 50, Unit: "1/op"}}}}}
		data, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, equal, regressed := write("a.json", 200), write("b.json", 200), write("c.json", 250)
	var out bytes.Buffer
	if code := run([]string{"-compare", base, equal}, &out, io.Discard); code != 0 {
		t.Errorf("equal documents: exit %d, want 0", code)
	}
	out.Reset()
	if code := run([]string{"-compare", base, regressed}, &out, io.Discard); code != 1 {
		t.Errorf("regressed document: exit %d, want 1", code)
	}
	for _, want := range []string{"allocs_per_op", "worse", "1.2500 of 200", "netsim.msgs_per_op"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("compare output lacks %q:\n%s", want, out.String())
		}
	}
	if code := run([]string{"-compare", base}, io.Discard, io.Discard); code != 2 {
		t.Errorf("one document: exit %d, want 2", code)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// = [3.5, 13.5, 31.0]
	q1, med, q3 := quartiles([]float64{46, 1, 37, 2, 29, 4, 22, 7, 16, 11})
	if q1 != 3.5 || med != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %g %g %g, want 3.5 13.5 31", q1, med, q3)
	}
	if _, med, _ := quartiles([]float64{3, 1, 2}); med != 2 {
		t.Errorf("median of three = %g, want 2", med)
	}
}

// The metric tables obey the contract's limits, every per-layer metric
// names the end-to-end metric it should move, and BENCHMARK.json is
// what the tables say.
func TestMetricTables(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) {
			t.Errorf("metric name %q is outside the contract", n)
		}
		if !unit.MatchString(u) {
			t.Errorf("metric %s: unit %q is outside the contract", n, u)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(endToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, at most 16", len(endToEnd))
	}
	for _, d := range endToEnd {
		check(d.name, d.unit)
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.name, d.bound)
		}
	}
	if d := endToEnd[0]; d.name != "setup_s" || d.unit != "s" || d.higher {
		t.Errorf("the first end-to-end metric must be setup_s in s, lower is better; got %+v", d)
	}
	defs := allLayerDefs()
	if len(defs) > 128 {
		t.Errorf("%d per-layer metrics, at most 128", len(defs))
	}
	for _, d := range defs {
		check(d.name, d.unit)
		if _, ok := endDefByName(d.moves); !ok {
			t.Errorf("%s should move %q, which is no end-to-end metric", d.name, d.moves)
		}
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads, want 2 to 8", len(workloads))
	}
	for _, w := range workloads {
		check(w.name, "count")
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
	if want, got := manifestJSON(), readFile(t, filepath.Join("..", "BENCHMARK.json")); !bytes.Equal(want, got) {
		t.Errorf("BENCHMARK.json is not what `go run -C bench . -manifest` prints; regenerate it")
	}
}

func TestCPUSharesAttribution(t *testing.T) {
	shares := cpuShares([]stackSample{
		{weight: 50, stack: []string{"runtime.mallocgc", "hades/internal/replication.copySeen", "hades/internal/simkern.(*Engine).Run", "main.main"}},
		{weight: 20, stack: []string{"hades/internal/session.(*Batcher[go.shape.*uint8]).Add", "hades/internal/shard.(*Client).enqueue"}},
		{weight: 20, stack: []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack"}},
		{weight: 5, stack: []string{"hades/internal/heug.(*Task).Validate", "main.main"}},
		{weight: 5, stack: []string{"runtime.usleep", "runtime.sysmon"}},
	})
	for layer, want := range map[string]float64{"replication": 0.5, "session": 0.2, "runtime_gc": 0.2, "other": 0.1, "simkern": 0, "shard": 0} {
		if got := shares[layer]; got != want {
			t.Errorf("cpu share of %s = %g, want %g", layer, got, want)
		}
	}
}
