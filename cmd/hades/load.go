package main

import (
	"errors"
	"flag"
	"fmt"
	"io"

	"hades/internal/report"
)

// loadCmd runs a scenario under the load harness and persists its
// per-run performance report: offered vs. achieved throughput (with the
// per-interval series), ack/commit latency p50/p99/p999 per op class and
// shard, per-shard service breakdowns, the load generators' accounts,
// SLO outcomes and the fault timeline. Reports are deterministic — the
// same scenario and seed serialize to a byte-identical document — so a
// committed LOAD_<name>.json is a trustworthy baseline, and -baseline
// (or hades diff) flags regressions past a per-stat threshold.
func loadCmd(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("load", stderr)
	var (
		open      = scenarioFlags(fs)
		out       = fs.String("out", "", "report output file (default LOAD_<sha>.json with -sha, stdout otherwise)")
		sha       = fs.String("sha", "", "commit SHA to stamp into the report")
		baseline  = fs.String("baseline", "", "baseline report to diff the fresh run against (exit 1 on regression)")
		threshold = thresholdFlag(fs)
	)
	if fs.Parse(args) != nil {
		return exitUsage
	}
	spec, clu, _, err := simulate(open)
	if err != nil {
		return cannot(stderr, "load", err)
	}
	doc := clu.ReportNow(spec.Name)
	doc.SHA = *sha
	if err := doc.Validate(); err != nil {
		return cannot(stderr, "load", fmt.Errorf("run produced an invalid report: %v", err))
	}

	path := *out
	if path == "" && *sha != "" {
		path = "LOAD_" + *sha + ".json"
	}
	if path != "" {
		if err := doc.WriteFile(path); err != nil {
			return cannot(stderr, "load", err)
		}
		fmt.Fprintf(stderr, "hades load: %s: offered=%d achieved=%d (%.0f/s) latency-rows=%d slo=%d fault-events=%d -> %s\n",
			doc.Name, doc.Throughput.Offered, doc.Throughput.Achieved,
			doc.Throughput.AchievedPerSec, len(doc.Latency), len(doc.SLO), len(doc.Faults), path)
	} else if err := doc.WriteJSON(stdout); err != nil {
		return cannot(stderr, "load", err)
	}
	// As in hades run: the audits gate the exit code after the report is
	// written, so a failing run keeps its artifact but never passes as a
	// baseline.
	if err := verify(clu); err != nil {
		fmt.Fprintf(stderr, "hades load: verification failed: %v\n", err)
		return exitBad
	}

	if *baseline == "" {
		return exitOK
	}
	old, err := report.ReadFile(*baseline)
	if err != nil {
		return cannot(stderr, "load", err)
	}
	return gate(stdout, old, doc, *threshold)
}

// diffCmd compares two persisted reports and exits 1 when any stat
// regressed past the threshold.
func diffCmd(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("diff", stderr)
	threshold := thresholdFlag(fs)
	if fs.Parse(args) != nil {
		return exitUsage
	}
	if fs.NArg() != 2 {
		return cannot(stderr, "diff", errors.New("need exactly two report files: old.json new.json"))
	}
	var docs [2]*report.Report
	for i, path := range fs.Args() {
		doc, err := report.ReadFile(path)
		if err != nil {
			return cannot(stderr, "diff", err)
		}
		docs[i] = doc
	}
	return gate(stdout, docs[0], docs[1], *threshold)
}

func thresholdFlag(fs *flag.FlagSet) *float64 {
	return fs.Float64("threshold", 0.10, "fractional per-stat movement flagged as a regression")
}

// gate prints the movement from old to cur and turns a regression into
// the exit code.
func gate(stdout io.Writer, old, cur *report.Report, threshold float64) int {
	d := report.Diff(old, cur, report.UniformThresholds(threshold))
	fmt.Fprint(stdout, d)
	if d.HasRegressions() {
		return exitBad
	}
	return exitOK
}
