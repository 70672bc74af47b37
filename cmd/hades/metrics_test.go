package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hades/internal/metrics"
)

// writeMetricsSample marshals a small hand-built export and returns its path.
func writeMetricsSample(t *testing.T) string {
	t.Helper()
	doc := metrics.Export{
		IntervalNs: 5_000_000, Capacity: 256, Scrapes: 3,
		Series: []metrics.SeriesData{
			{Name: "kv.ack.latency", Kind: "hist", Unit: "ns", Points: []metrics.PointData{
				{T: 5_000_000, V: 4, P50: 1_200_000, P99: 1_400_000, Max: 1_400_000},
				{T: 10_000_000, V: 6, P50: 1_100_000, P99: 9_000_000, Max: 10_000_000},
				{T: 15_000_000, V: 5, P50: 1_300_000, P99: 1_500_000, Max: 1_500_000},
			}},
			{Name: "shard.ops.shard0", Kind: "counter", Dropped: 2, Points: []metrics.PointData{
				{T: 5_000_000, V: 9}, {T: 10_000_000, V: 7}, {T: 15_000_000, V: 8},
			}},
		},
		SLO: []metrics.RuleData{
			{Name: "ack-p99", Expr: "p99(kv.ack.latency) <= 5e+06", Metric: "kv.ack.latency",
				Stat: "p99", Op: "<=", Threshold: 5_000_000, For: 1, Evals: 3,
				Breaches: []metrics.BreachData{{Onset: 10_000_000, Clear: 15_000_000, Intervals: 1, Worst: 9_000_000}}},
		},
		TopKeys: []metrics.HotKey{
			{Key: "alpha", Shard: 0, Count: 19},
			{Key: "bravo", Shard: 1, Count: 4},
			{Key: "golf", Shard: 0, Count: 3, Err: 1},
		},
	}
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sample.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestMetrics table-tests hades metrics.
func TestMetrics(t *testing.T) {
	sample := writeMetricsSample(t)
	cases := []cliCase{
		{"no args", []string{"metrics"}, 2, "", "need exactly one metrics file"},
		{"two args", []string{"metrics", sample, sample}, 2, "", "need exactly one metrics file"},
		{"missing file", []string{"metrics", filepath.Join(t.TempDir(), "nope.json")}, 2, "", "hades metrics:"},
		{"slo report", []string{"metrics", "-slo", sample}, 0, "breach onset 10.0ms, cleared 15.0ms", ""},
		{"top report", []string{"metrics", "-top", "2", sample}, 0, "hot shard: 0", ""},
		{"timeline", []string{"metrics", sample}, 0, "kv.ack.latency", ""},
	}
	runCases(t, cases)
}

// TestReportsDetail pins the report contents: the timeline marks ring
// evictions and histogram worst-p99; -top shows the admission error
// bound; -slo prints the rule expression.
func TestReportsDetail(t *testing.T) {
	sample := writeMetricsSample(t)
	var out bytes.Buffer
	if code := run([]string{"metrics", sample}, &out, &out); code != 0 {
		t.Fatalf("timeline failed:\n%s", out.String())
	}
	for _, want := range []string{"(+2 points evicted)", "worst-p99=9.00ms", "counter", "hist"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("timeline missing %q:\n%s", want, out.String())
		}
	}
	out.Reset()
	if code := run([]string{"metrics", "-top", "3", sample}, &out, &out); code != 0 {
		t.Fatalf("-top failed:\n%s", out.String())
	}
	for _, want := range []string{"alpha", "~19 touch(es)", "(±1)", "hot shard: 0 (22 of 26"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-top missing %q:\n%s", want, out.String())
		}
	}
	out.Reset()
	if code := run([]string{"metrics", "-slo", sample}, &out, &out); code != 0 {
		t.Fatalf("-slo failed:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "p99(kv.ack.latency) <= 5e+06") {
		t.Errorf("-slo missing the rule expression:\n%s", out.String())
	}
}
