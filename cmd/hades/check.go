package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"hades/internal/metrics"
	"hades/internal/report"
	"hades/internal/trace"
)

// checkCmd validates the artifacts a run exports. What each file is
// gets read off its top-level keys — "traceEvents": a trace export;
// "series" and "scrapes": a metrics timeline; "throughput": a load
// report — so one invocation takes any mix of them. Exit 1 if any file
// is invalid or empty, 2 if any could not be read.
func checkCmd(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("check", stderr)
	if fs.Parse(args) != nil {
		return exitUsage
	}
	if fs.NArg() == 0 {
		return cannot(stderr, "check", errors.New("need at least one file (a trace export, a metrics export or a load report)"))
	}
	code := exitOK
	for _, path := range fs.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(stderr, "hades check: %v\n", err)
			code = exitUsage
			continue
		}
		summary, err := checkDoc(data)
		if err != nil {
			fmt.Fprintf(stderr, "hades check: %s %v\n", path, err)
			code = max(code, exitBad)
			continue
		}
		fmt.Fprintf(stdout, "ok: %s (%s)\n", summary, path)
	}
	return code
}

// checkDoc validates one artifact and summarises it; the error, if any,
// completes the sentence "<file> ...".
func checkDoc(data []byte) (string, error) {
	var top map[string]json.RawMessage
	if err := json.Unmarshal(data, &top); err != nil {
		return "", fmt.Errorf("is not a JSON document: %v", err)
	}
	has := func(key string) bool { _, ok := top[key]; return ok }
	switch {
	case has("traceEvents"):
		var doc trace.ChromeDoc
		if err := json.Unmarshal(data, &doc); err != nil {
			return "", fmt.Errorf("is not Chrome trace JSON: %v", err)
		}
		traces, spans := regroup(doc)
		if spans == 0 {
			return "", errors.New("parses but holds no spans")
		}
		return fmt.Sprintf("%d trace(s), %d span(s)", len(traces), spans), nil
	case has("series") && has("scrapes"):
		var doc metrics.Export
		if err := json.Unmarshal(data, &doc); err != nil {
			return "", fmt.Errorf("is not a metrics export: %v", err)
		}
		if len(doc.Series) == 0 || doc.Scrapes == 0 {
			return "", errors.New("parses but holds no scraped series")
		}
		return fmt.Sprintf("%d series, %d scrapes every %.1fms, %d slo rule(s), %d hot key(s)",
			len(doc.Series), doc.Scrapes, ms(doc.IntervalNs), len(doc.SLO), len(doc.TopKeys)), nil
	case has("throughput"):
		var doc report.Report
		if err := json.Unmarshal(data, &doc); err != nil {
			return "", fmt.Errorf("is not a run report: %v", err)
		}
		if err := doc.Validate(); err != nil {
			return "", fmt.Errorf("is an invalid run report: %v", err)
		}
		return fmt.Sprintf("%s seed=%d offered=%d achieved=%d (%.0f/s) series=%d latency-rows=%d loads=%d slo=%d fault-events=%d",
			doc.Name, doc.Seed, doc.Throughput.Offered, doc.Throughput.Achieved,
			doc.Throughput.AchievedPerSec, len(doc.Throughput.Series),
			len(doc.Latency), len(doc.Loads), len(doc.SLO), len(doc.Faults)), nil
	}
	return "", errors.New("is no artifact this tool writes (no traceEvents, series+scrapes or throughput key)")
}
