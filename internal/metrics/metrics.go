// Package metrics is the virtual-time metrics plane of the HADES
// reproduction: an always-on, allocation-conscious time-series layer
// over the simulator's virtual clock.
//
// A per-run Registry holds named instruments — counters, gauges and
// histograms — that every layer updates on its hot path through
// nil-safe handles (a disabled plane hands out nil handles; every
// method on a nil handle is a no-op, so call sites carry no
// conditionals). On a fixed virtual-time interval the registry scrapes
// every instrument into a fixed-capacity ring-buffer series: counters
// record the per-interval delta, gauges the sampled value, histograms
// a per-interval {count, p50, p99, p999, max} summary (the interval
// histogram then resets). On top of the series an SLO probe engine
// (slo.go) evaluates declarative threshold rules each interval, and a
// space-saving sketch (topk.go) tracks per-key hotness — the signal
// elastic resharding will consume.
//
// Like the tracing plane, the metrics plane is behaviorally passive:
// it never consumes the engine's random stream and its scrape events
// never mutate simulation state, so a run with metrics on is
// byte-identical to the same run with metrics off (modulo the SLO
// breach events it appends to the monitor stream). Same description +
// same seed ⇒ byte-identical export.
package metrics

import (
	"fmt"
	"slices"
	"sort"

	"hades/internal/monitor"
	"hades/internal/trace"
	"hades/internal/vtime"
)

// The plane's sizes, constants of the model: the interval is short
// against the millisecond-scale horizons of the builtins (a 400ms run
// yields 80 points) and the capacity generously covers second-scale
// runs before a series' ring wraps.
const (
	DefaultInterval = 5 * vtime.Millisecond
	DefaultCapacity = 256
	DefaultTopK     = 16
)

// Options parameterises a Registry.
type Options struct {
	// Rules are the declarative SLO threshold rules evaluated each
	// interval.
	Rules []Rule
	// Now is not read: the registry scrapes at the instants it hands
	// its door. It stays because bench/layers/kernel.go sets it.
	Now func() vtime.Time
	// Schedule arranges fn to run at absolute virtual instant t, always
	// later than the instant it last arranged: the registry's one door
	// for its whole life, every scrape tick of every ArmUntil window
	// through it (the cluster passes a Cluster.Chain, so the ticks keep
	// the place in the event order the first window took). Required for
	// scraping.
	Schedule func(t vtime.Time, fn func())
	// Log, when set, receives SLO breach/clear events.
	Log *monitor.Log
}

// series is a ring of the most recent DefaultCapacity points, kept in
// their exported form. An export hands the ring out, unwound in place,
// instead of copying it; the ring is then shared, and the next
// overwrite copies it once before writing (an append past the exported
// length writes where the clipped export cannot see).
type series struct {
	pts     []PointData
	start   int
	dropped int
	shared  bool // pts is an export's backing array
}

func (s *series) push(p PointData) {
	if len(s.pts) < DefaultCapacity {
		s.pts = append(s.pts, p)
		return
	}
	if s.shared {
		s.pts, s.shared = slices.Clone(s.pts), false
	}
	s.pts[s.start] = p
	s.start = (s.start + 1) % DefaultCapacity
	s.dropped++
}

// export returns the retained points in chronological order, sharing
// the ring: it unwinds a wrapped ring in place (a ring that wrapped
// since the last export owns its array again) and clips the result, so
// nothing the series writes later shows through it. An empty series
// exports an empty, non-nil slice.
func (s *series) export() []PointData {
	if s.start != 0 {
		slices.Reverse(s.pts[:s.start])
		slices.Reverse(s.pts[s.start:])
		slices.Reverse(s.pts)
		s.start = 0
	}
	if s.pts == nil {
		return []PointData{}
	}
	s.shared = true
	return slices.Clip(s.pts)
}

// last returns the newest point.
func (s *series) last() (PointData, bool) {
	if len(s.pts) == 0 {
		return PointData{}, false
	}
	i := s.start - 1
	if i < 0 {
		i = len(s.pts) - 1
	}
	return s.pts[i], true
}

// Counter is a monotonic count; each scrape records the delta since
// the previous one. Source callbacks (CounterFunc) let existing
// cumulative statistics feed a counter without touching their hot
// path. All methods are nil-safe.
type Counter struct {
	v    int64
	last int64
	fns  []func() int64
	s    series
}

// add increments the counter.
func (c *Counter) add(n int64) {
	if c != nil {
		c.v += n
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.add(1) }

func (c *Counter) sample() int64 {
	v := c.v
	for _, fn := range c.fns {
		v += fn()
	}
	return v
}

// Gauge is a sampled level. Gauges are sampled sources only: a gauge
// has no value of its own, and each scrape records the sum of the
// sources registered under its name with GaugeFunc (several sources
// under one name sum — per-shard depths aggregate naturally).
type Gauge struct {
	fns []func() int64
	s   series
}

func (g *Gauge) sample() int64 {
	var v int64
	for _, fn := range g.fns {
		v += fn()
	}
	return v
}

// Hist is a per-interval log-linear histogram (the trace plane's HDR
// layout): each scrape summarises and resets it. Nil-safe.
type Hist struct {
	h    *trace.Hist
	unit string
	s    series
}

// Observe records one observation.
func (h *Hist) Observe(v int64) {
	if h != nil {
		h.h.Record(v)
	}
}

// ObserveD records one duration observation.
func (h *Hist) ObserveD(d vtime.Duration) { h.Observe(int64(d)) }

// instKind discriminates the registry's entries.
type instKind uint8

const (
	kindCounter instKind = iota + 1
	kindGauge
	kindHist
)

func (k instKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHist:
		return "hist"
	}
	return "?"
}

// entry is one named instrument.
type entry struct {
	name string
	kind instKind
	c    *Counter
	g    *Gauge
	h    *Hist
}

func (e *entry) scrape(t vtime.Time) {
	switch e.kind {
	case kindCounter:
		cur := e.c.sample()
		e.c.s.push(PointData{T: int64(t), V: cur - e.c.last})
		e.c.last = cur
	case kindGauge:
		e.g.s.push(PointData{T: int64(t), V: e.g.sample()})
	case kindHist:
		h := e.h.h
		e.h.s.push(PointData{
			T: int64(t), V: int64(h.Count()),
			P50: h.Percentile(0.5), P99: h.Percentile(0.99),
			P999: h.Percentile(0.999), Max: h.Max(),
		})
		h.Reset()
	}
}

func (e *entry) series() *series {
	switch e.kind {
	case kindCounter:
		return &e.c.s
	case kindGauge:
		return &e.g.s
	case kindHist:
		return &e.h.s
	}
	return nil
}

// Registry is the per-run metrics plane: the named instruments, the
// scrape schedule, the SLO probes and the key-hotness sketch. A nil
// Registry is the disabled plane — every method no-ops and every
// instrument accessor returns a nil (no-op) handle.
type Registry struct {
	opt    Options
	order  []*entry
	byName map[string]*entry
	topk   *TopK
	probes []*probe

	// The scrape schedule is one chain through opt.Schedule: the
	// pending tick scrapes boundary tickAt (0 when none is pending)
	// and schedules its successor while it is <= until.
	until, tickAt vtime.Time
	tick          func() // scrapeTick, bound once
	scrapes       int
}

// New builds a registry.
func New(opt Options) *Registry {
	r := &Registry{
		opt:    opt,
		byName: make(map[string]*entry),
		topk:   newTopK(DefaultTopK),
	}
	for _, rule := range opt.Rules {
		r.probes = append(r.probes, newProbe(rule))
	}
	r.tick = r.scrapeTick
	return r
}

// Scrapes returns how many scrape ticks have fired.
func (r *Registry) Scrapes() int {
	if r == nil {
		return 0
	}
	return r.scrapes
}

// get returns (creating) the named entry, checking the kind: one name,
// one instrument — a kind clash is a programming error and panics.
func (r *Registry) get(name string, kind instKind) *entry {
	e := r.byName[name]
	if e != nil {
		if e.kind != kind {
			panic(fmt.Sprintf("metrics: %q registered as %s, requested as %s", name, e.kind, kind))
		}
		return e
	}
	e = &entry{name: name, kind: kind}
	switch kind {
	case kindCounter:
		e.c = &Counter{}
	case kindGauge:
		e.g = &Gauge{}
	case kindHist:
		e.h = &Hist{h: trace.NewHist(), unit: "ns"}
	}
	r.byName[name] = e
	r.order = append(r.order, e)
	return e
}

// Counter returns the named counter handle (nil when disabled).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return r.get(name, kindCounter).c
}

// CounterFunc feeds the named counter from a cumulative source sampled
// at each scrape (the delta is recorded) — wiring for statistics that
// already exist, costing the hot path nothing.
func (r *Registry) CounterFunc(name string, fn func() int64) {
	if r == nil {
		return
	}
	c := r.get(name, kindCounter).c
	c.fns = append(c.fns, fn)
}

// GaugeFunc adds a sampled source to the named gauge; several sources
// under one name sum at scrape time.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	if r == nil {
		return
	}
	g := r.get(name, kindGauge).g
	g.fns = append(g.fns, fn)
}

// Hist returns the named histogram handle with nanosecond unit (nil
// when disabled).
func (r *Registry) Hist(name string) *Hist {
	if r == nil {
		return nil
	}
	return r.get(name, kindHist).h
}

// HistUnit returns the named histogram handle, declaring its unit
// ("ns", "ops", ...) for the exporters.
func (r *Registry) HistUnit(name, unit string) *Hist {
	if r == nil {
		return nil
	}
	h := r.get(name, kindHist).h
	h.unit = unit
	return h
}

// Keys returns the key-hotness sketch (nil when disabled).
func (r *Registry) Keys() *TopK {
	if r == nil {
		return nil
	}
	return r.topk
}

// ArmUntil arranges a scrape tick on every interval boundary up to and
// including until that no earlier call covered (repeated runs extend
// the schedule). It schedules only the window's first tick through the
// Schedule door; each tick schedules the next while it is still within
// until, so the queue holds one tick, not the window, and a run that
// drains to idle still ends. A call while the previous window's chain
// is still pending extends that chain. Every window rides the one door,
// so a horizon split into several calls scrapes as one call covering it
// would. Scrape callbacks read instruments and never mutate simulation
// state, keeping the plane passive.
func (r *Registry) ArmUntil(until vtime.Time) {
	if r == nil || r.opt.Schedule == nil || until <= r.until {
		return
	}
	step := vtime.Time(DefaultInterval)
	first := (r.until/step + 1) * step
	r.until = until
	if r.tickAt != 0 || first > until {
		return
	}
	r.tickAt = first
	r.opt.Schedule(first, r.tick)
}

// scrapeTick is one tick of the chain: it scrapes its boundary, then
// schedules the next one while that is within the window.
func (r *Registry) scrapeTick() {
	t := r.tickAt
	r.scrapeAt(t)
	if next := t.Add(DefaultInterval); next <= r.until {
		r.tickAt = next
		r.opt.Schedule(next, r.tick)
		return
	}
	r.tickAt = 0
}

// scrapeAt samples every instrument into its series and evaluates the
// SLO probes against the fresh points.
func (r *Registry) scrapeAt(t vtime.Time) {
	r.scrapes++
	for _, e := range r.order {
		e.scrape(t)
	}
	for _, p := range r.probes {
		r.evaluate(p, t)
	}
}

// names returns the registered series names, sorted.
func (r *Registry) names() []string {
	out := make([]string, 0, len(r.order))
	for _, e := range r.order {
		out = append(out, e.name)
	}
	sort.Strings(out)
	return out
}
