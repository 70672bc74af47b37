package main

import (
	"errors"
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
// committed LOAD_<name>.json is a trustworthy baseline, and hades diff
// flags regressions past a per-stat threshold.
func loadCmd(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("load", stderr)
	var (
		open = scenarioFlags(fs)
		out  = fs.String("out", "", "report output file (default stdout)")
	)
	if fs.Parse(args) != nil {
		return exitUsage
	}
	spec, clu, _, err := simulate(open)
	if err != nil {
		return cannot(stderr, "load", err)
	}
	doc := clu.ReportNow(spec.Name)
	if err := doc.Validate(); err != nil {
		return cannot(stderr, "load", fmt.Errorf("run produced an invalid report: %v", err))
	}

	if *out != "" {
		if err := doc.WriteFile(*out); err != nil {
			return cannot(stderr, "load", err)
		}
		fmt.Fprintf(stderr, "hades load: %s: offered=%d achieved=%d (%.0f/s) latency-rows=%d slo=%d fault-events=%d -> %s\n",
			doc.Name, doc.Throughput.Offered, doc.Throughput.Achieved,
			doc.Throughput.AchievedPerSec, len(doc.Latency), len(doc.SLO), len(doc.Faults), *out)
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
	return exitOK
}

// diffCmd compares two persisted reports and exits 1 when any stat
// regressed past the threshold.
func diffCmd(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("diff", stderr)
	threshold := fs.Float64("threshold", 0.10, "fractional per-stat movement flagged as a regression")
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
