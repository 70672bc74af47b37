// Command bench is the two-clock benchmark of the HADES reproduction:
// five workloads generated from a seed and driven through the path
// users take (scenario.Load, Spec.Build, Cluster.Run, the verifiers,
// Cluster.ReportNow), eleven end-to-end metrics on the host clock and
// the virtual clock, and a per-layer ledger measured from outside.
// README.md defines every workload and metric.
//
// Usage (from the repository root):
//
//	go run -C bench .                         # every workload, full protocol, table + results JSON
//	go run -C bench . -workload kv-steady     # one workload
//	go run -C bench . -quick                  # 1/10 horizons, 1 rep: a smoke run
//	go run -C bench . -out results/x.json     # where the results document goes
//	go run -C bench . -compare a.json b.json  # apply the bounds; exit 1 on any worse
//	go run -C bench . -manifest               # BENCHMARK.json, from the tables in this package
//
// The benchmark driver runs
//
//	go run -C bench . --workload W --seed N --seconds S --trace 0|1
//
// which measures one workload for S seconds and prints one JSON object
// as the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// outDir holds everything a run writes: generated scenarios, span
// traces, CPU profiles and the default results document.
const outDir = "out"

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "run only this workload (default: all five)")
		seed     = fs.Int64("seed", 1, "workload seed: becomes the scenario seed (link delays, arrivals, key draws, think times; rt-pipeline: WCETs)")
		seconds  = fs.Int("seconds", 0, "driver mode: measure one workload for this many seconds and print one JSON line")
		trace    = fs.Int("trace", 0, "driver mode: 0 prints the end-to-end metrics, 1 the per-layer ledger")
		quick    = fs.Bool("quick", false, "1/10 horizons, 1 timed rep, drivers at 1/10 N")
		out      = fs.String("out", "", "results document path (default out/results.json)")
		compare  = fs.Bool("compare", false, "compare two results documents: -compare base.json new.json")
		manifest = fs.Bool("manifest", false, "print BENCHMARK.json as the metric and workload tables define it")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return runCompare(fs.Args(), stdout, stderr)
	}
	if *manifest {
		if _, err := stdout.Write(manifestJSON()); err != nil {
			return 1
		}
		return 0
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	var sel []workload
	if *name == "" {
		sel = workloads
	} else if w, ok := workloadByName(*name); ok {
		sel = []workload{w}
	} else {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	p := protocol{seed: *seed, scale: 1, minReps: 5, layerScale: 1}
	if *quick {
		p = protocol{seed: *seed, scale: 0.1, minReps: 1, layerScale: 0.1, quick: true}
	}
	if *seconds > 0 {
		if len(sel) != 1 {
			fmt.Fprintln(stderr, "bench: -seconds needs -workload")
			return 2
		}
		p.minReps, p.budget = 3, time.Duration(*seconds)*time.Second
		return runDriver(sel[0], p, *trace == 1, stdout, stderr)
	}
	return runFull(sel, p, *out, stdout, stderr)
}

// driverLine is the one JSON object the driver reads.
type driverLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// runDriver measures one workload for the driver: with trace off the
// timed reps and the end-to-end metrics, with trace on the ledger.
func runDriver(w workload, p protocol, traced bool, stdout, stderr io.Writer) int {
	res, err := measureWorkload(w, p, traced, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	line := driverLine{Correct: true, Attempted: res.Attempted, Failed: res.Lost, Metrics: res.PerLayer}
	if !traced {
		line.Metrics = map[string]Metric{}
		for name, st := range res.EndToEnd {
			line.Metrics[name] = Metric{Value: st.Median, Unit: st.Unit}
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", data)
	return 0
}
