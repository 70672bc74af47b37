package main

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"hades/internal/trace"
)

// span is one X event regrouped under its trace.
type span struct {
	name  string
	layer string
	ts    float64 // µs since run start
	dur   float64 // µs
}

// traceRec is one trace reassembled from the event stream.
type traceRec struct {
	id    uint64
	shard int
	title string // thread_name metadata: "<class> #<id> <label>"
	spans []span
	marks []string
	viols []string
}

// root returns the trace's end-to-end duration: its widest span (the
// root span covers the whole trace by construction).
func (t *traceRec) root() (span, bool) {
	var best span
	found := false
	for _, s := range t.spans {
		if !found || s.dur > best.dur {
			best, found = s, true
		}
	}
	return best, found
}

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
	traces, spans := regroup(doc)
	if len(traces) == 0 {
		fmt.Fprintf(stderr, "hades trace: %s holds no traces\n", fs.Arg(0))
		return exitBad
	}
	sort.Slice(traces, func(i, j int) bool {
		ri, _ := traces[i].root()
		rj, _ := traces[j].root()
		if ri.dur != rj.dur {
			return ri.dur > rj.dur
		}
		return traces[i].id < traces[j].id
	})
	n := max(0, min(*top, len(traces)))
	fmt.Fprintf(stdout, "%d trace(s), %d span(s); %s; slowest %d:\n", len(traces), spans, rootSummary(traces), n)
	for _, t := range traces[:n] {
		waterfall(stdout, t)
	}
	return exitOK
}

// rootSummary renders end-to-end latency percentiles over the traces'
// root-span durations. Traces arrive sorted by root duration
// descending, so the nearest-rank percentile indexes from the tail.
func rootSummary(traces []*traceRec) string {
	durs := make([]float64, 0, len(traces))
	for _, t := range traces {
		if r, ok := t.root(); ok {
			durs = append(durs, r.dur)
		}
	}
	if len(durs) == 0 {
		return "no root spans"
	}
	pct := func(p float64) float64 {
		// durs is descending: rank r from the top picks the value below
		// which a fraction p of the population falls.
		idx := len(durs) - 1 - int(p*float64(len(durs)-1)+0.5)
		if idx < 0 {
			idx = 0
		}
		return durs[idx]
	}
	return fmt.Sprintf("root p50=%.1fus p99=%.1fus p999=%.1fus max=%.1fus",
		pct(0.5), pct(0.99), pct(0.999), durs[0])
}

// regroup reassembles traces from the flat event stream: X events by
// tid, thread_name metadata for titles, instants for marks/violations.
func regroup(doc trace.ChromeDoc) ([]*traceRec, int) {
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
		switch e.Ph {
		case "M":
			if e.Name != "thread_name" {
				continue
			}
			if name, ok := e.Args["name"].(string); ok {
				get(e.Tid, e.Pid).title = name
			}
		case "X":
			t := get(e.Tid, e.Pid)
			dur := 0.0
			if e.Dur != nil {
				dur = *e.Dur
			}
			layer, _ := e.Args["layer"].(string)
			t.spans = append(t.spans, span{name: e.Name, layer: layer, ts: e.Ts, dur: dur})
			spans++
		case "i":
			t := get(e.Tid, e.Pid)
			if e.S == "g" {
				t.viols = append(t.viols, e.Name)
			} else {
				t.marks = append(t.marks, fmt.Sprintf("%.1fus %s", e.Ts, e.Name))
			}
		}
	}
	out := make([]*traceRec, 0, len(order))
	for _, id := range order {
		out = append(out, byID[id])
	}
	return out, spans
}

// waterfall renders one trace: a line per span, offset and scaled bar
// against the trace's end-to-end window, plus marks and violations.
func waterfall(w io.Writer, t *traceRec) {
	root, ok := t.root()
	if !ok {
		return
	}
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
		fmt.Fprintf(w, "  * %s\n", m)
	}
	for _, v := range t.viols {
		fmt.Fprintf(w, "  ! %s\n", v)
	}
	if rows := layerBreakdown(sorted); len(rows) > 0 {
		fmt.Fprint(w, "  layers:")
		for _, lr := range rows {
			pct := 0.0
			if root.dur > 0 {
				pct = lr.self / root.dur * 100
			}
			fmt.Fprintf(w, "  %s %.1fus (%.0f%%)", lr.layer, lr.self, pct)
		}
		fmt.Fprintln(w)
	}
}

// layerRow is one layer's share of a trace's end-to-end time.
type layerRow struct {
	layer string
	self  float64 // µs of self-time attributed to the layer
}

// layerBreakdown attributes each span's self-time (its duration minus
// its immediate children's) to the span's layer, so the rows sum to
// the trace's end-to-end duration without double-counting nesting.
// Spans must already be sorted by start time, widest first on ties.
func layerBreakdown(sorted []span) []layerRow {
	type open struct {
		end float64
		idx int
	}
	self := make([]float64, len(sorted))
	layer := make([]string, len(sorted))
	var stack []open
	for i, s := range sorted {
		self[i] = s.dur
		layer[i] = s.layer
		if layer[i] == "" {
			layer[i] = "other"
		}
		// Tolerate float µs rounding at containment boundaries.
		const eps = 1e-6
		for len(stack) > 0 && s.ts >= stack[len(stack)-1].end-eps {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			self[stack[len(stack)-1].idx] -= s.dur
		}
		stack = append(stack, open{end: s.ts + s.dur, idx: i})
	}
	sums := map[string]float64{}
	order := []string{}
	for i := range sorted {
		if self[i] < 0 {
			self[i] = 0
		}
		if _, seen := sums[layer[i]]; !seen {
			order = append(order, layer[i])
		}
		sums[layer[i]] += self[i]
	}
	sort.Slice(order, func(i, j int) bool {
		if sums[order[i]] != sums[order[j]] {
			return sums[order[i]] > sums[order[j]]
		}
		return order[i] < order[j]
	})
	rows := make([]layerRow, 0, len(order))
	for _, l := range order {
		rows = append(rows, layerRow{layer: l, self: sums[l]})
	}
	return rows
}
