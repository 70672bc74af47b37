package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hades/internal/trace"
	"hades/internal/vtime"
)

// writeTraceSample exports a small hand-built trace file and returns its path.
func writeTraceSample(t *testing.T) string {
	t.Helper()
	now := vtime.Time(0)
	tick := func(d vtime.Duration) { now += vtime.Time(d) }
	tr := trace.New(1, 1.0, func() vtime.Time { return now })
	tc := tr.Begin("txn", 0)
	tc.SetLabel("t0.1")
	s := tc.Span("queue.txn", trace.LayerQueue)
	tick(50 * vtime.Microsecond)
	s.End()
	w := tc.Span("rpc.txn", trace.LayerWire)
	tick(200 * vtime.Microsecond)
	tc.Ref().Instant("retry after timeout")
	tick(100 * vtime.Microsecond)
	w.End()
	tc.SetClass("txn.abort")
	tc.Violate("abort: deadline")
	tc.Finish()

	path := filepath.Join(t.TempDir(), "sample.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteChrome(f, tr.Retained()); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestTrace table-tests hades trace.
func TestTrace(t *testing.T) {
	sample := writeTraceSample(t)
	cases := []cliCase{
		{"no args", []string{"trace"}, 2, "", "need exactly one trace file"},
		{"two args", []string{"trace", sample, sample}, 2, "", "need exactly one trace file"},
		{"missing file", []string{"trace", filepath.Join(t.TempDir(), "nope.json")}, 2, "", "hades trace:"},
		{"waterfall", []string{"trace", "-top", "1", sample}, 0, "txn.abort", ""},
	}
	runCases(t, cases)
}

// TestWaterfallShowsMarksAndViolations checks the default report
// renders instants and violations alongside the span bars.
func TestWaterfallShowsMarksAndViolations(t *testing.T) {
	sample := writeTraceSample(t)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"trace", sample}, &stdout, &stderr); code != 0 {
		t.Fatalf("run failed: %s", stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"queue.txn", "rpc.txn", "* ", "retry after timeout", "! ", "abort: deadline",
		"layers:", "wire 300.0us", "queue 50.0us"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
