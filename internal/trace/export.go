package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// ChromeEvent is one Chrome trace-event (the JSON array format
// chrome://tracing and Perfetto load). Spans export as complete "X"
// events grouped pid=shard / tid=trace, point events as instants, and
// metadata "M" events name the tracks.
type ChromeEvent struct {
	Name string      `json:"name"`
	Cat  string      `json:"cat,omitempty"`
	Ph   string      `json:"ph"`
	Ts   float64     `json:"ts"`
	Dur  *float64    `json:"dur,omitempty"`
	Pid  int         `json:"pid"`
	Tid  uint64      `json:"tid"`
	S    string      `json:"s,omitempty"`
	Args *ChromeArgs `json:"args,omitempty"`
}

// ChromeArgs are the event arguments the exporter writes.
type ChromeArgs struct {
	// Name is a metadata event's track name.
	Name string `json:"name,omitempty"`
	// Layer is a span's attribution layer.
	Layer string `json:"layer,omitempty"`
	// Layers is the sealed per-layer breakdown, on a trace's root span
	// only: integer virtual nanoseconds that sum exactly to the root's
	// duration. It marks the root; readers take it, not a re-derivation
	// from the spans, as the trace's account.
	Layers *LayerTimes `json:"layers,omitempty"`
}

// ChromeDoc is the exported document shape.
type ChromeDoc struct {
	TraceEvents     []ChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChrome writes traces as Chrome trace-event JSON. Timestamps and
// durations are virtual-time microseconds. Output is byte-identical
// for identical inputs: traces export in the given (completion) order,
// spans in creation order, and shard metadata sorted.
func WriteChrome(w io.Writer, traces []*Trace) error {
	events := make([]ChromeEvent, 0, 4*len(traces))
	shards := make(map[int]bool)
	for _, tr := range traces {
		if tr != nil {
			shards[tr.shard] = true
		}
	}
	order := make([]int, 0, len(shards))
	for sh := range shards {
		order = append(order, sh)
	}
	sort.Ints(order)
	for _, sh := range order {
		events = append(events, ChromeEvent{
			Name: "process_name", Ph: "M", Pid: sh,
			Args: &ChromeArgs{Name: fmt.Sprintf("shard %d", sh)},
		})
	}
	for _, tr := range traces {
		if tr == nil {
			continue
		}
		title := fmt.Sprintf("%s #%d", tr.class, tr.id)
		if lb := tr.resolvedLabel(); lb != "" {
			title += " " + lb
		}
		events = append(events, ChromeEvent{
			Name: "thread_name", Ph: "M", Pid: tr.shard, Tid: tr.id,
			Args: &ChromeArgs{Name: title},
		})
		for i, s := range tr.spans {
			dur := s.end.Sub(s.start).Micros()
			args := &ChromeArgs{Layer: s.layer.String()}
			if i == 0 {
				args.Layers = &tr.layers
			}
			events = append(events, ChromeEvent{
				Name: s.name, Cat: "hades", Ph: "X",
				Ts: s.start.Micros(), Dur: &dur,
				Pid: tr.shard, Tid: tr.id, Args: args,
			})
		}
		for _, m := range tr.marks {
			events = append(events, ChromeEvent{
				Name: m.Name, Cat: "hades", Ph: "i", S: "t",
				Ts: m.At.Micros(), Pid: tr.shard, Tid: tr.id,
			})
		}
		for _, v := range tr.viols {
			events = append(events, ChromeEvent{
				Name: "VIOLATION: " + v.Name, Cat: "hades", Ph: "i", S: "g",
				Ts: v.At.Micros(), Pid: tr.shard, Tid: tr.id,
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(ChromeDoc{TraceEvents: events, DisplayTimeUnit: "ms"})
}
