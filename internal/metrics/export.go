package metrics

import (
	"encoding/json"
	"io"
)

// Export is the JSON timeline document: every series' retained points,
// the SLO rules with their breach windows, and the key-hotness sketch.
// All instants and durations are integer virtual-time nanoseconds, so
// identical runs export byte-identical documents.
type Export struct {
	IntervalNs int64        `json:"interval_ns"`
	Capacity   int          `json:"capacity"`
	Scrapes    int          `json:"scrapes"`
	Series     []SeriesData `json:"series"`
	SLO        []RuleData   `json:"slo,omitempty"`
	TopKeys    []HotKey     `json:"top_keys,omitempty"`
}

// SeriesData is one exported series.
type SeriesData struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	Unit string `json:"unit,omitempty"`
	// Dropped counts points the ring buffer evicted (oldest first).
	Dropped int         `json:"dropped,omitempty"`
	Points  []PointData `json:"points"`
}

// PointData is one scraped sample, as the ring keeps it and the
// export shows it. T is the scrape instant (ns); V the counter delta /
// gauge level / histogram count; the percentile fields summarise a
// histogram's interval (zero when the interval observed nothing).
type PointData struct {
	T    int64 `json:"t"`
	V    int64 `json:"v"`
	P50  int64 `json:"p50,omitempty"`
	P99  int64 `json:"p99,omitempty"`
	P999 int64 `json:"p999,omitempty"`
	Max  int64 `json:"max,omitempty"`
}

// RuleData is one exported SLO rule with its breach history.
type RuleData struct {
	Name      string       `json:"name"`
	Expr      string       `json:"expr"`
	Metric    string       `json:"metric"`
	Stat      string       `json:"stat"`
	Op        string       `json:"op"`
	Threshold float64      `json:"threshold"`
	Evals     int          `json:"evals"`
	Breaches  []BreachData `json:"breaches,omitempty"`
}

// BreachData is one exported breach window. Clear is zero (omitted)
// when the breach was still open at run end.
type BreachData struct {
	Onset     int64   `json:"onset"`
	Clear     int64   `json:"clear,omitempty"`
	Intervals int     `json:"intervals"`
	Worst     float64 `json:"worst"`
}

// Export snapshots the registry into its timeline document. Series
// sort by name; every ordering in the document is deterministic. Each
// series' points share its ring rather than copy it (see series), so
// the document stays as it was while the run goes on, and its readers
// must not write into it.
func (r *Registry) Export() *Export {
	if r == nil {
		return nil
	}
	doc := &Export{
		IntervalNs: int64(DefaultInterval),
		Capacity:   DefaultCapacity,
		Scrapes:    r.scrapes,
		Series:     make([]SeriesData, 0, len(r.order)),
	}
	for _, name := range r.names() {
		e := r.byName[name]
		s := e.series()
		sd := SeriesData{Name: e.name, Kind: e.kind.String(), Dropped: s.dropped, Points: s.export()}
		if e.kind == kindHist {
			sd.Unit = e.h.unit
		}
		doc.Series = append(doc.Series, sd)
	}
	for _, p := range r.probes {
		rd := RuleData{
			Name: p.r.Name, Expr: p.r.expr(), Metric: p.r.Metric,
			Stat: string(p.r.Stat), Op: string(p.r.Op),
			Threshold: p.r.Threshold, Evals: p.evals,
		}
		for _, b := range p.breaches {
			rd.Breaches = append(rd.Breaches, BreachData{
				Onset: int64(b.Onset), Clear: int64(b.Clear), Intervals: b.Intervals, Worst: b.Worst,
			})
		}
		doc.SLO = append(doc.SLO, rd)
	}
	doc.TopKeys = r.topk.hot()
	return doc
}

// WriteJSON writes the export document to w.
func (r *Registry) WriteJSON(w io.Writer) error {
	doc := r.Export()
	if doc == nil {
		doc = &Export{}
	}
	return json.NewEncoder(w).Encode(doc)
}
