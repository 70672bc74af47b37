package main

import (
	"fmt"
	"io"
	"maps"
	"slices"
	"sort"
	"strings"

	"hades/internal/trace"
	"hades/internal/vtime"
)

// span is one X event regrouped under its trace.
type span struct {
	name  string
	layer string
	ts    float64 // µs since run start
	dur   float64 // µs
}

// mark is one instant regrouped under its trace.
type mark struct {
	name string
	ts   float64 // µs since run start
}

// traceRec is one trace reassembled from the event stream.
type traceRec struct {
	id    uint64
	shard int
	title string // thread_name metadata: "<class> #<id> <label>"
	// root is the span carrying the tracer's sealed breakdown, layers;
	// its name is the trace's op class.
	root   span
	layers *trace.LayerTimes
	spans  []span
	marks  []mark
	viols  []string
}

// latency is the trace's end-to-end duration: the sum of its sealed
// layers, which partition the root exactly.
func (t *traceRec) latency() vtime.Duration { return t.layers.Total() }

// traceCmd inspects Chrome trace-event JSON exported by hades run
// -trace: it lists the slowest traces and renders a per-trace waterfall
// of the span tree — a terminal companion to loading the file in
// Perfetto.
func traceCmd(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("trace", stderr)
	top := fs.Int("top", 10, "number of slowest traces to report")
	if fs.Parse(args) != nil {
		return exitUsage
	}
	var doc trace.ChromeDoc
	if err := readOperand(fs, "trace", &doc); err != nil {
		return cannot(stderr, "trace", err)
	}
	traces, spans, err := regroup(doc)
	if err != nil {
		fmt.Fprintf(stderr, "hades trace: %s %v\n", fs.Arg(0), err)
		return exitBad
	}
	if len(traces) == 0 {
		fmt.Fprintf(stderr, "hades trace: %s holds no traces\n", fs.Arg(0))
		return exitBad
	}
	sort.Slice(traces, func(i, j int) bool {
		if li, lj := traces[i].latency(), traces[j].latency(); li != lj {
			return li > lj
		}
		return traces[i].id < traces[j].id
	})
	n := max(0, min(*top, len(traces)))
	fmt.Fprintf(stdout, "%d trace(s), %d span(s); slowest %d:\n", len(traces), spans, n)
	for _, r := range classRows(traces) {
		fmt.Fprintf(stdout, "  root %-15s n=%-5d p50=%-10s p99=%-10s p999=%-10s max=%s\n",
			r.Class, r.Count, r.P50, r.P99, r.P999, r.Max)
	}
	for _, t := range traces[:n] {
		waterfall(stdout, t)
	}
	return exitOK
}

// classRows is one end-to-end latency row per op class over the
// traces' roots, by class name: trace.Hist percentiles, the rule behind
// hades run's lat rows, so at sample rate 1 each row equals its class's
// all-shards lat row.
func classRows(traces []*traceRec) []trace.ScopeStats {
	hists := map[string]*trace.Hist{}
	for _, t := range traces {
		h := hists[t.root.name]
		if h == nil {
			h = trace.NewHist()
			hists[t.root.name] = h
		}
		h.Record(int64(t.latency()))
	}
	rows := make([]trace.ScopeStats, 0, len(hists))
	for _, class := range slices.Sorted(maps.Keys(hists)) {
		h := hists[class]
		rows = append(rows, trace.ScopeStats{
			Class: class, Shard: -1, Count: int(h.Count()),
			P50:  vtime.Duration(h.Percentile(0.50)),
			P99:  vtime.Duration(h.Percentile(0.99)),
			P999: vtime.Duration(h.Percentile(0.999)),
			Max:  vtime.Duration(h.Max()),
		})
	}
	return rows
}

// regroup reassembles traces from the flat event stream: X events by
// tid, the root by the breakdown it carries, thread_name metadata for
// titles, instants for marks/violations. A trace with no root, or whose
// root's duration is not the sum of its layers, is an error.
func regroup(doc trace.ChromeDoc) ([]*traceRec, int, error) {
	byID := make(map[uint64]*traceRec)
	order := []uint64{}
	get := func(id uint64, shard int) *traceRec {
		t := byID[id]
		if t == nil {
			t = &traceRec{id: id, shard: shard}
			byID[id] = t
			order = append(order, id)
		}
		return t
	}
	spans := 0
	for _, e := range doc.TraceEvents {
		var args trace.ChromeArgs
		if e.Args != nil {
			args = *e.Args
		}
		switch e.Ph {
		case "M":
			if e.Name == "thread_name" {
				get(e.Tid, e.Pid).title = args.Name
			}
		case "X":
			t := get(e.Tid, e.Pid)
			dur := 0.0
			if e.Dur != nil {
				dur = *e.Dur
			}
			s := span{name: e.Name, layer: args.Layer, ts: e.Ts, dur: dur}
			t.spans = append(t.spans, s)
			if args.Layers != nil {
				t.root, t.layers = s, args.Layers
			}
			spans++
		case "i":
			t := get(e.Tid, e.Pid)
			if e.S == "g" {
				t.viols = append(t.viols, e.Name)
			} else {
				t.marks = append(t.marks, mark{name: e.Name, ts: e.Ts})
			}
		}
	}
	out := make([]*traceRec, 0, len(order))
	for _, id := range order {
		t := byID[id]
		if t.layers == nil {
			return nil, 0, fmt.Errorf("has trace %d with no root span carrying its layers", id)
		}
		if sum := t.latency().Micros(); sum != t.root.dur {
			return nil, 0, fmt.Errorf("has trace %d whose root lasts %.3fus but whose layers sum to %.3fus", id, t.root.dur, sum)
		}
		out = append(out, t)
	}
	return out, spans, nil
}

// waterfall renders one trace: a line per span, offset and scaled bar
// against the root's window, then marks and violations offset the same
// way, then the tracer's per-layer breakdown.
func waterfall(w io.Writer, t *traceRec) {
	root := t.root
	title := t.title
	if title == "" {
		title = fmt.Sprintf("trace %d", t.id)
	}
	fmt.Fprintf(w, "\n%s (shard %d): %.1fus\n", title, t.shard, root.dur)
	const cols = 40
	sorted := append([]span(nil), t.spans...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].ts != sorted[j].ts {
			return sorted[i].ts < sorted[j].ts
		}
		return sorted[i].dur > sorted[j].dur
	})
	for _, s := range sorted {
		lead := 0
		width := cols
		if root.dur > 0 {
			lead = int((s.ts - root.ts) / root.dur * cols)
			width = int(s.dur / root.dur * cols)
		}
		if lead < 0 {
			lead = 0
		}
		if lead > cols {
			lead = cols
		}
		if width < 1 {
			width = 1
		}
		if lead+width > cols {
			width = cols - lead
			if width < 1 {
				width = 1
			}
		}
		bar := strings.Repeat(" ", lead) + strings.Repeat("=", width)
		fmt.Fprintf(w, "  %-44s |%-*s| +%-10.1f %10.1fus  %s\n", s.name, cols, bar, s.ts-root.ts, s.dur, s.layer)
	}
	for _, m := range t.marks {
		fmt.Fprintf(w, "  * +%.1fus %s\n", m.ts-root.ts, m.name)
	}
	for _, v := range t.viols {
		fmt.Fprintf(w, "  ! %s\n", v)
	}
	if t.latency() == 0 {
		return
	}
	l := t.layers
	rows := []struct {
		layer string
		d     vtime.Duration
	}{{"queue", l.Queue}, {"batch", l.Batch}, {"wire", l.Wire}, {"replicate", l.Replicate}, {"lock", l.Lock}, {"other", l.Other}}
	fmt.Fprint(w, "  layers:")
	for _, r := range rows {
		if r.d > 0 {
			fmt.Fprintf(w, "  %s %.1fus (%.0f%%)", r.layer, r.d.Micros(), float64(r.d)/float64(t.latency())*100)
		}
	}
	fmt.Fprintln(w)
}
