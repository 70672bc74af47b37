// Command hades-load runs a scenario under the load harness and
// persists its per-run performance report: offered vs. achieved
// throughput (with the per-interval series), ack/commit latency
// p50/p99/p999 per op class and shard, per-shard service breakdowns,
// the load generators' accounts, SLO outcomes and the fault timeline.
// Reports are deterministic — the same scenario and seed serialize to
// a byte-identical document — so a committed LOAD_<name>.json is a
// trustworthy baseline, and the -baseline/-diff gates flag
// regressions past a per-stat threshold with a nonzero exit.
//
// Usage:
//
//	hades-load -builtin load-ramp                     # report to stdout
//	hades-load -builtin hot-shard -sha $GITHUB_SHA    # writes LOAD_<sha>.json
//	hades-load -scenario run.json -out report.json
//	hades-load -builtin hot-shard -baseline baselines/LOAD_hot-shard.json
//	hades-load -diff old.json new.json                # exit 1 on regression
//	hades-load -diff -threshold 0.25 old.json new.json
//	hades-load -check report.json                     # exit 0 iff well-formed
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"hades/internal/report"
	"hades/internal/scenario"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hades-load", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		builtin   = fs.String("builtin", "", "built-in scenario to run (see hades-sim -list)")
		scenPath  = fs.String("scenario", "", "scenario JSON file to run")
		out       = fs.String("out", "", "report output file (default LOAD_<sha>.json with -sha, stdout otherwise)")
		sha       = fs.String("sha", "", "commit SHA to stamp into the report")
		baseline  = fs.String("baseline", "", "baseline report to diff the fresh run against (exit 1 on regression)")
		diff      = fs.Bool("diff", false, "compare two report files: -diff old.json new.json")
		check     = fs.Bool("check", false, "validate a report file: -check report.json")
		threshold = fs.Float64("threshold", 0.10, "fractional per-stat movement flagged as a regression")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *diff {
		return runDiff(fs.Args(), *threshold, stdout, stderr)
	}
	if *check {
		return runCheck(fs.Args(), stdout, stderr)
	}

	spec, err := scenario.Open(*builtin, *scenPath)
	if err != nil {
		fmt.Fprintf(stderr, "hades-load: %v\n", err)
		return 2
	}
	sys, err := spec.Build()
	if err != nil {
		fmt.Fprintf(stderr, "hades-load: %v\n", err)
		return 2
	}
	sys.Run(spec.Horizon())
	doc := sys.ReportNow(spec.Name)
	doc.SHA = *sha
	if err := doc.Validate(); err != nil {
		fmt.Fprintf(stderr, "hades-load: run produced an invalid report: %v\n", err)
		return 2
	}

	path := *out
	if path == "" && *sha != "" {
		path = "LOAD_" + *sha + ".json"
	}
	if path != "" {
		if err := doc.WriteFile(path); err != nil {
			fmt.Fprintf(stderr, "hades-load: %v\n", err)
			return 2
		}
		fmt.Fprintf(stderr, "hades-load: %s: offered=%d achieved=%d (%.0f/s) latency-rows=%d slo=%d fault-events=%d -> %s\n",
			doc.Name, doc.Throughput.Offered, doc.Throughput.Achieved,
			doc.Throughput.AchievedPerSec, len(doc.Latency), len(doc.SLO), len(doc.Faults), path)
	} else if err := doc.WriteJSON(stdout); err != nil {
		fmt.Fprintf(stderr, "hades-load: %v\n", err)
		return 2
	}

	if *baseline != "" {
		old, err := report.ReadFile(*baseline)
		if err != nil {
			fmt.Fprintf(stderr, "hades-load: %v\n", err)
			return 2
		}
		d := report.Diff(old, doc, report.UniformThresholds(*threshold))
		fmt.Fprint(stdout, d)
		if d.HasRegressions() {
			return 1
		}
	}
	return 0
}

// runDiff compares two persisted reports and exits nonzero when any
// stat regressed past the threshold.
func runDiff(args []string, threshold float64, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "hades-load: -diff needs exactly two report files: old.json new.json")
		return 2
	}
	old, err := report.ReadFile(args[0])
	if err != nil {
		fmt.Fprintf(stderr, "hades-load: %v\n", err)
		return 2
	}
	cur, err := report.ReadFile(args[1])
	if err != nil {
		fmt.Fprintf(stderr, "hades-load: %v\n", err)
		return 2
	}
	d := report.Diff(old, cur, report.UniformThresholds(threshold))
	fmt.Fprint(stdout, d)
	if d.HasRegressions() {
		return 1
	}
	return 0
}

// runCheck validates a persisted report's schema.
func runCheck(args []string, stdout, stderr io.Writer) int {
	if len(args) != 1 {
		fmt.Fprintln(stderr, "hades-load: -check needs exactly one report file")
		return 2
	}
	doc, err := report.ReadFile(args[0])
	if err != nil {
		fmt.Fprintf(stderr, "hades-load: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "ok: %s seed=%d offered=%d achieved=%d (%.0f/s) series=%d latency-rows=%d loads=%d slo=%d fault-events=%d\n",
		doc.Name, doc.Seed, doc.Throughput.Offered, doc.Throughput.Achieved,
		doc.Throughput.AchievedPerSec, len(doc.Throughput.Series),
		len(doc.Latency), len(doc.Loads), len(doc.SLO), len(doc.Faults))
	return 0
}
