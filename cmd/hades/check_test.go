package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestCheck table-tests hades check: the document kind comes off each
// file's top-level keys, an invalid or empty artifact exits 1, an
// unreadable one exits 2, and one invocation takes a mix of kinds.
func TestCheck(t *testing.T) {
	tmp := t.TempDir()
	write := func(name, body string) string {
		t.Helper()
		path := filepath.Join(tmp, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	traceDoc, metricsDoc := writeTraceSample(t), writeMetricsSample(t)
	reportDoc := genReport(t, "load-ramp", "r.json")
	garbage := write("garbage.json", "not json at all")
	emptyTrace := write("empty-trace.json", `{"traceEvents":[],"displayTimeUnit":"ms"}`)
	badTrace := write("bad-trace.json", `{"traceEvents":"soon"}`)
	emptyMetrics := write("empty-metrics.json", `{"interval_ns":5000000,"capacity":256,"scrapes":0,"series":[]}`)
	badMetrics := write("bad-metrics.json", `{"scrapes":"many","series":[]}`)
	badReport := write("bad-report.json", `{"name":"x","throughput":{}}`)
	stranger := write("stranger.json", `{"name":"x"}`)
	missing := filepath.Join(tmp, "nope.json")

	runCases(t, []cliCase{
		{"trace ok", []string{"check", traceDoc}, 0, "ok: 1 trace(s)", ""},
		{"trace empty", []string{"check", emptyTrace}, 1, "", "holds no spans"},
		{"trace malformed", []string{"check", badTrace}, 1, "", "not Chrome trace JSON"},
		{"metrics ok", []string{"check", metricsDoc}, 0, "ok: 2 series, 3 scrapes", ""},
		{"metrics empty", []string{"check", emptyMetrics}, 1, "", "holds no scraped series"},
		{"metrics malformed", []string{"check", badMetrics}, 1, "", "not a metrics export"},
		{"report ok", []string{"check", reportDoc}, 0, "ok: load-ramp seed=1", ""},
		{"report without a horizon", []string{"check", badReport}, 1, "", "non-positive horizon"},
		{"garbage", []string{"check", garbage}, 1, "", "not a JSON document"},
		{"unknown kind", []string{"check", stranger}, 1, "", "no artifact this tool writes"},
		{"missing file", []string{"check", missing}, 2, "", "hades check:"},
		{"no args", []string{"check"}, 2, "", "need at least one file"},
		{"no -kind option", []string{"check", "-kind", "trace", traceDoc}, 2, "", "flag provided but not defined"},
		{"mixed kinds", []string{"check", traceDoc, metricsDoc, reportDoc}, 0, reportDoc, ""},
		{"mixed kinds, one empty", []string{"check", traceDoc, emptyMetrics, reportDoc}, 1, reportDoc, emptyMetrics},
		{"mixed kinds, one missing", []string{"check", traceDoc, emptyMetrics, missing}, 2, traceDoc, "nope.json"},
	})
}
