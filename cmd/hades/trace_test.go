package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hades/internal/scenario"
	"hades/internal/trace"
	"hades/internal/vtime"
)

// writeTraceSample exports a small hand-built trace file whose root
// starts at start and returns its path.
func writeTraceSample(t *testing.T, start vtime.Time) string {
	t.Helper()
	now := start
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
	sample := writeTraceSample(t, 0)
	cases := []cliCase{
		{"no args", []string{"trace"}, 2, "", "need exactly one trace file"},
		{"two args", []string{"trace", sample, sample}, 2, "", "need exactly one trace file"},
		{"missing file", []string{"trace", filepath.Join(t.TempDir(), "nope.json")}, 2, "", "hades trace:"},
		{"waterfall", []string{"trace", "-top", "1", sample}, 0, "txn.abort", ""},
	}
	runCases(t, cases)
}

// TestWaterfallShowsMarksAndViolations checks the default report
// renders instants and violations alongside the span bars, marks offset
// from the root's start like the bars, whenever the root starts.
func TestWaterfallShowsMarksAndViolations(t *testing.T) {
	for _, start := range []vtime.Time{0, vtime.Time(1000 * vtime.Microsecond)} {
		sample := writeTraceSample(t, start)
		var stdout, stderr bytes.Buffer
		if code := run([]string{"trace", sample}, &stdout, &stderr); code != 0 {
			t.Fatalf("run failed: %s", stderr.String())
		}
		out := stdout.String()
		for _, want := range []string{"queue.txn", "rpc.txn", "* +250.0us retry after timeout", "! ", "abort: deadline",
			"layers:", "wire 300.0us", "queue 50.0us", "root txn.abort       n=1     p50=350us"} {
			if !strings.Contains(out, want) {
				t.Errorf("root at %s: report missing %q:\n%s", start, want, out)
			}
		}
	}
}

// TestTraceReaderIsTheTracersAccount runs every builtin that traces at
// sample rate 1, exports its traces and reads them back through hades
// trace's reader. Every trace's layers sum exactly to its root; each
// (class, shard)'s layers sum to the tracer's own breakdown for that
// scope; and each class's summary row is its all-shards Result.Latency
// row.
func TestTraceReaderIsTheTracersAccount(t *testing.T) {
	covered := 0
	for _, name := range scenario.BuiltinNames() {
		spec, err := scenario.Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		clu, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		tr := clu.Tracer()
		if tr.Rate() != 1 {
			continue
		}
		covered++
		t.Run(name, func(t *testing.T) {
			res := clu.Run(spec.Horizon())
			_, finished, retained, _ := tr.Counts()
			if finished == 0 || retained != finished {
				t.Fatalf("at rate 1 every finished trace is retained: finished=%d retained=%d", finished, retained)
			}
			var buf bytes.Buffer
			if err := trace.WriteChrome(&buf, tr.Retained()); err != nil {
				t.Fatal(err)
			}
			var doc trace.ChromeDoc
			if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
				t.Fatal(err)
			}
			traces, _, err := regroup(doc)
			if err != nil {
				t.Fatal(err)
			}
			if len(traces) != finished {
				t.Fatalf("read back %d traces, exported %d", len(traces), finished)
			}
			sums := map[trace.Scope]trace.LayerTimes{}
			for _, rec := range traces {
				rootNs := vtime.Duration(math.Round(rec.root.dur * 1000))
				if rec.latency() != rootNs {
					t.Errorf("trace %d: layers sum to %d ns, root lasts %d ns", rec.id, rec.latency(), rootNs)
				}
				sc := trace.Scope{Class: rec.root.name, Shard: rec.shard}
				l, sum := *rec.layers, sums[sc]
				sum.Queue += l.Queue
				sum.Batch += l.Batch
				sum.Wire += l.Wire
				sum.Replicate += l.Replicate
				sum.Lock += l.Lock
				sum.Other += l.Other
				sums[sc] = sum
			}
			for _, st := range tr.Stats() {
				if st.Shard < 0 {
					continue
				}
				if got := sums[trace.Scope{Class: st.Class, Shard: st.Shard}]; got != st.Layers {
					t.Errorf("%s shard %d: read-back layers %+v, tracer's %+v", st.Class, st.Shard, got, st.Layers)
				}
			}
			want := map[string]trace.ScopeStats{}
			for _, l := range res.Latency {
				if l.Shard < 0 {
					want[l.Class] = trace.ScopeStats{Class: l.Class, Shard: -1, Count: l.Count, P50: l.P50, P99: l.P99, P999: l.P999, Max: l.Max}
				}
			}
			rows := classRows(traces)
			if len(rows) != len(want) {
				t.Errorf("%d summary rows, %d all-shards lat rows", len(rows), len(want))
			}
			for _, r := range rows {
				if r != want[r.Class] {
					t.Errorf("summary row %+v, lat row %+v", r, want[r.Class])
				}
			}
		})
	}
	if covered < 5 {
		t.Fatalf("%d builtins trace at rate 1, want at least 5", covered)
	}
}
