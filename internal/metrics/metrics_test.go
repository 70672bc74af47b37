package metrics

import (
	"bytes"
	"slices"
	"testing"

	"hades/internal/monitor"
	"hades/internal/vtime"
)

// sim is a miniature deterministic scheduler standing in for the
// engine: Schedule enqueues, runTo fires everything due in time order.
type sim struct {
	q map[vtime.Time][]func()
}

func newSim() *sim { return &sim{q: map[vtime.Time][]func(){}} }

func (s *sim) opts() Options {
	return Options{
		Schedule: func(t vtime.Time, fn func()) { s.q[t] = append(s.q[t], fn) },
	}
}

// runTo fires, earliest instant first, every callback due by until,
// those the callbacks schedule included (each scrape tick schedules
// the next).
func (s *sim) runTo(until vtime.Time) {
	for {
		var due []vtime.Time
		for t := range s.q {
			if t <= until {
				due = append(due, t)
			}
		}
		if len(due) == 0 {
			return
		}
		t := slices.Min(due)
		fns := s.q[t]
		delete(s.q, t)
		for _, fn := range fns {
			fn()
		}
	}
}

func findSeries(ex *Export, name string) *SeriesData {
	for i := range ex.Series {
		if ex.Series[i].Name == name {
			return &ex.Series[i]
		}
	}
	return nil
}

// TestCounterDeltaGaugeLevelFuncSum: counters export per-interval
// deltas, gauges the level at the scrape instant, and multiple source
// funcs registered under one name sum.
func TestCounterDeltaGaugeLevelFuncSum(t *testing.T) {
	s := newSim()
	r := New(s.opts())
	c := r.Counter("ops")
	depth := int64(7)
	r.GaugeFunc("depth", func() int64 { return depth })
	a, b := int64(3), int64(4)
	r.GaugeFunc("fanned", func() int64 { return a })
	r.GaugeFunc("fanned", func() int64 { return b })

	c.add(5)
	r.ArmUntil(vtime.Time(2 * DefaultInterval))
	s.runTo(vtime.Time(DefaultInterval))
	c.add(2)
	depth -= 3
	a = 10
	s.runTo(vtime.Time(2 * DefaultInterval))

	ex := r.Export()
	ops := findSeries(ex, "ops")
	if ops == nil || len(ops.Points) != 2 || ops.Points[0].V != 5 || ops.Points[1].V != 2 {
		t.Fatalf("counter deltas wrong: %+v", ops)
	}
	levels := findSeries(ex, "depth")
	if levels == nil || levels.Points[0].V != 7 || levels.Points[1].V != 4 {
		t.Fatalf("gauge levels wrong: %+v", levels)
	}
	fanned := findSeries(ex, "fanned")
	if fanned == nil || fanned.Points[0].V != 7 || fanned.Points[1].V != 14 {
		t.Fatalf("summed gauge funcs wrong: %+v", fanned)
	}
}

// TestSeriesRingWraparound: a full ring drops the oldest points, keeps
// the newest DefaultCapacity in chronological order and counts the
// evictions.
func TestSeriesRingWraparound(t *testing.T) {
	const scrapes = DefaultCapacity + 6
	s := newSim()
	r := New(s.opts())
	c := r.Counter("ops")
	r.ArmUntil(vtime.Time(scrapes * DefaultInterval))
	for i := 1; i <= scrapes; i++ {
		c.add(int64(i)) // interval i's delta is i
		s.runTo(vtime.Time(vtime.Duration(i) * DefaultInterval))
	}
	ex := r.Export()
	ops := findSeries(ex, "ops")
	if ops == nil {
		t.Fatal("series missing")
	}
	if ops.Dropped != 6 {
		t.Fatalf("dropped = %d, want 6", ops.Dropped)
	}
	if len(ops.Points) != DefaultCapacity {
		t.Fatalf("retained %d points, want %d", len(ops.Points), DefaultCapacity)
	}
	for i, p := range ops.Points {
		wantT := int64(vtime.Duration(7+i) * DefaultInterval)
		if p.T != wantT || p.V != int64(7+i) {
			t.Fatalf("point %d = {T:%d V:%d}, want {T:%d V:%d} (chronological unwind)", i, p.T, p.V, wantT, 7+i)
		}
	}
}

// TestHistIntervalReset: each interval summarises only its own
// observations; an empty interval exports a zero point.
func TestHistIntervalReset(t *testing.T) {
	s := newSim()
	r := New(s.opts())
	h := r.Hist("lat")
	r.ArmUntil(vtime.Time(3 * DefaultInterval))
	h.Observe(100)
	h.Observe(200)
	s.runTo(vtime.Time(DefaultInterval))
	// Interval 2: nothing observed.
	s.runTo(vtime.Time(2 * DefaultInterval))
	h.ObserveD(5 * vtime.Microsecond)
	s.runTo(vtime.Time(3 * DefaultInterval))

	lat := findSeries(r.Export(), "lat")
	if lat == nil || len(lat.Points) != 3 {
		t.Fatalf("want 3 points: %+v", lat)
	}
	p1, p2, p3 := lat.Points[0], lat.Points[1], lat.Points[2]
	if p1.V != 2 || p1.Max != 200 || p1.P50 < 100 {
		t.Fatalf("interval 1 stats wrong: %+v", p1)
	}
	if p2.V != 0 || p2.Max != 0 || p2.P50 != 0 || p2.P99 != 0 {
		t.Fatalf("empty interval not zeroed: %+v", p2)
	}
	if p3.V != 1 || p3.Max != 5000 {
		t.Fatalf("interval 3 leaked earlier observations: %+v", p3)
	}
}

// TestSLOStreakOnsetClear drives a rule through the full cycle: a
// holding interval opens nothing, the first violating one opens a
// breach (with the onset instant and a monitor event), further
// violations extend it, and a holding interval clears it with the
// clear instant.
func TestSLOStreakOnsetClear(t *testing.T) {
	s := newSim()
	log := monitor.NewLog(100)
	opt := s.opts()
	opt.Log = log
	opt.Rules = []Rule{{Name: "depth", Metric: "q", Op: OpLE, Threshold: 10}}
	r := New(opt)
	var q int64
	r.GaugeFunc("q", func() int64 { return q })
	r.ArmUntil(vtime.Time(5 * DefaultInterval))

	q = 5 // interval 1: holds
	s.runTo(vtime.Time(DefaultInterval))
	if n := len(r.breaches()); n != 0 {
		t.Fatalf("breach on a holding interval: %d", n)
	}
	q = 60 // interval 2: violating → breach opens
	s.runTo(vtime.Time(2 * DefaultInterval))
	br := r.breaches()
	if len(br) != 1 || br[0].Onset != vtime.Time(2*DefaultInterval) || br[0].Clear != 0 {
		t.Fatalf("breach not opened at the first violating interval: %+v", br)
	}
	if ev := log.ByKind(monitor.KindSLOBreach); len(ev) != 1 || ev[0].Detail != "value(q) <= 10: observed 60 (1 violating intervals)" {
		t.Fatalf("breach events %+v", ev)
	}
	q = 70 // interval 3: still violating (extends, worst=70)
	s.runTo(vtime.Time(3 * DefaultInterval))
	q = 5 // interval 4: holds → clears
	s.runTo(vtime.Time(4 * DefaultInterval))

	br = r.breaches()
	if len(br) != 1 {
		t.Fatalf("want one breach window: %+v", br)
	}
	b := br[0]
	if b.Clear != vtime.Time(4*DefaultInterval) || b.Intervals != 2 || b.Worst != 70 {
		t.Fatalf("clear/intervals/worst wrong: %+v", b)
	}
	if n := log.CountKind(monitor.KindSLOBreach); n != 1 {
		t.Fatalf("want 1 breach event, got %d", n)
	}
	if n := log.CountKind(monitor.KindSLOClear); n != 1 {
		t.Fatalf("want 1 clear event, got %d", n)
	}
	// SLO events must not count as correctness violations.
	if v := log.Violations(); len(v) != 0 {
		t.Fatalf("SLO events leaked into violations: %+v", v)
	}
}

// TestSLONoDataClears: a percentile rule over a histogram holds
// vacuously on empty intervals, closing any open breach.
func TestSLONoDataClears(t *testing.T) {
	s := newSim()
	opt := s.opts()
	opt.Rules = []Rule{{Name: "lat", Metric: "lat", Stat: StatP99, Op: OpLE, Threshold: 1000}}
	r := New(opt)
	h := r.Hist("lat")
	r.ArmUntil(vtime.Time(3 * DefaultInterval))

	h.Observe(5000) // interval 1: p99 violates → breach (For defaults to 1)
	s.runTo(vtime.Time(DefaultInterval))
	// Interval 2: no observations → vacuous hold, breach clears.
	s.runTo(vtime.Time(2 * DefaultInterval))
	br := r.breaches()
	if len(br) != 1 || br[0].Onset != vtime.Time(DefaultInterval) || br[0].Clear != vtime.Time(2*DefaultInterval) {
		t.Fatalf("no-data interval did not clear the breach: %+v", br)
	}
	// Evals counted only intervals with data.
	ex := r.Export()
	if len(ex.SLO) != 1 || ex.SLO[0].Evals != 1 {
		t.Fatalf("evals should skip empty intervals: %+v", ex.SLO)
	}
}

// TestTopKEvictionDeterminism: over-capacity keys evict the smallest,
// oldest-admitted entry; counts inherit the evicted floor and report
// the error bound; ties in hot() order by key.
func TestTopKEvictionDeterminism(t *testing.T) {
	k := newTopK(2)
	k.Touch("a", 0)
	k.Touch("a", 0)
	k.Touch("b", 1) // a:2, b:1
	k.Touch("c", 0) // evicts b (min=1): c admitted with count=2, err=1
	hot := k.hot()
	if len(hot) != 2 {
		t.Fatalf("want 2 entries: %+v", hot)
	}
	if hot[0].Key != "a" || hot[0].Count != 2 || hot[0].Err != 0 {
		t.Fatalf("exact entry wrong: %+v", hot[0])
	}
	if hot[1].Key != "c" || hot[1].Count != 2 || hot[1].Err != 1 {
		t.Fatalf("evicting entry must inherit the floor: %+v", hot[1])
	}
	// Equal counts order by key for a deterministic export.
	k2 := newTopK(4)
	k2.Touch("z", 0)
	k2.Touch("m", 0)
	k2.Touch("a", 0)
	h2 := k2.hot()
	if h2[0].Key != "a" || h2[1].Key != "m" || h2[2].Key != "z" {
		t.Fatalf("tie-break not by key: %+v", h2)
	}
}

// TestNilRegistrySafe: a disabled plane hands out nil instruments whose
// methods are all no-ops, and nil-safe registry calls do nothing.
func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	h := r.Hist("x")
	k := r.Keys()
	if c != nil || h != nil || k != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	c.Inc()
	c.add(3)
	h.Observe(1)
	h.ObserveD(vtime.Millisecond)
	k.Touch("a", 0)
	r.CounterFunc("x", func() int64 { return 1 })
	r.GaugeFunc("x", func() int64 { return 1 })
	r.ArmUntil(vtime.Time(vtime.Second))
	if r.Export() != nil {
		t.Fatal("nil registry must export nil")
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("nil registry must still write a valid JSON document")
	}
}

// TestKindClashPanics: registering one name as two instrument kinds is
// a programming error and fails fast.
func TestKindClashPanics(t *testing.T) {
	s := newSim()
	r := New(s.opts())
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("kind clash did not panic")
		}
	}()
	r.GaugeFunc("x", func() int64 { return 0 })
}

// TestArmUntilChainsEachBoundaryOnce: windows armed back to back, one
// with no boundary of its own and one armed while the previous chain
// is still pending, scrape every boundary once, in order, and the
// chain stops at the last window's end.
func TestArmUntilChainsEachBoundaryOnce(t *testing.T) {
	s := newSim()
	r := New(s.opts())
	var at []vtime.Time
	r.GaugeFunc("g", func() int64 { return 0 })
	r.ArmUntil(vtime.Time(7 * vtime.Millisecond)) // 5ms
	s.runTo(vtime.Time(7 * vtime.Millisecond))
	r.ArmUntil(vtime.Time(9 * vtime.Millisecond))  // no new boundary
	r.ArmUntil(vtime.Time(12 * vtime.Millisecond)) // 10ms
	r.ArmUntil(vtime.Time(20 * vtime.Millisecond)) // pending: 15ms, 20ms
	s.runTo(vtime.Time(vtime.Second))
	for _, p := range findSeries(r.Export(), "g").Points {
		at = append(at, vtime.Time(p.T))
	}
	want := []vtime.Time{vtime.Time(5 * vtime.Millisecond), vtime.Time(10 * vtime.Millisecond),
		vtime.Time(15 * vtime.Millisecond), vtime.Time(20 * vtime.Millisecond)}
	if !slices.Equal(at, want) || r.Scrapes() != len(want) || len(s.q) != 0 {
		t.Fatalf("scraped at %v (%d scrapes, %d instants queued), want %v", at, r.Scrapes(), len(s.q), want)
	}
}

// breaches returns every recorded breach window, rule order then
// onset order.
func (r *Registry) breaches() []Breach {
	if r == nil {
		return nil
	}
	var out []Breach
	for _, p := range r.probes {
		out = append(out, p.breaches...)
	}
	return out
}
