//go:build !race

// The allocation gates live apart from the other tests because the race
// detector instruments allocation: under -race they would measure the
// detector, so that job does not build them (CI runs them by name in
// build-and-test, step "engine core and record door allocate nothing").

package metrics_test

import (
	"testing"

	"hades/internal/eventq"
	"hades/internal/metrics"
	"hades/internal/simkern"
	"hades/internal/vtime"
)

// plane is a registry scraping through a real engine, every window on
// one chain at one slot as the cluster wires it, with one instrument of
// each kind and an SLO rule, every series' ring already full.
type plane struct {
	eng   *simkern.Engine
	reg   *metrics.Registry
	ops   *metrics.Counter
	lat   *metrics.Hist
	until vtime.Time
}

func newPlane(t *testing.T) *plane {
	t.Helper()
	eng := simkern.NewEngine(nil, 1)
	slot := eng.Slot()
	reg := metrics.New(metrics.Options{
		Rules:    []metrics.Rule{{Name: "lat", Metric: "lat", Stat: metrics.StatP99, Op: metrics.OpLE, Threshold: 1e9}},
		Schedule: func(t vtime.Time, fn func()) { eng.AtSlot(slot, t, eventq.ClassApp, eventq.Func(fn), 0) },
	})
	depth := int64(3)
	reg.GaugeFunc("depth", func() int64 { return depth })
	p := &plane{eng: eng, reg: reg, ops: reg.Counter("ops"), lat: reg.Hist("lat")}
	p.window(2 * metrics.DefaultCapacity) // every ring wraps
	return p
}

// window arms ticks more scrape ticks and runs through them.
func (p *plane) window(ticks int) {
	p.until = p.until.Add(vtime.Duration(ticks) * metrics.DefaultInterval)
	p.ops.Inc()
	p.lat.Observe(int64(ticks))
	p.reg.ArmUntil(p.until)
	p.eng.Run(p.until)
}

// TestAllocsScrapeTick: a warm scrape tick costs nothing — it scrapes
// every series into its full ring, evaluates the rule, and schedules the
// next tick on a recycled record at its chain's slot.
func TestAllocsScrapeTick(t *testing.T) {
	p := newPlane(t)
	p.reg.ArmUntil(p.until.Add(1000 * metrics.DefaultInterval))
	before := p.reg.Scrapes()
	n := testing.AllocsPerRun(200, func() {
		p.ops.Inc()
		p.lat.Observe(7)
		p.eng.Run(p.eng.Now().Add(metrics.DefaultInterval))
	})
	if n != 0 {
		t.Errorf("warm scrape tick: %v allocs, want 0", n)
	}
	if got := p.reg.Scrapes() - before; got != 201 {
		t.Fatalf("%d scrapes over 201 intervals", got)
	}
}

// TestAllocsArmUntil: arming a window costs the same however many ticks
// it spans: one chain through the registry's door, not a record and a
// closure per tick.
func TestAllocsArmUntil(t *testing.T) {
	cost := func(ticks int) float64 {
		p := newPlane(t)
		before := p.reg.Scrapes()
		n := testing.AllocsPerRun(20, func() { p.window(ticks) })
		if got := p.reg.Scrapes() - before; got != 21*ticks {
			t.Fatalf("%d scrapes over 21 windows of %d ticks", got, ticks)
		}
		return n
	}
	if small, large := cost(10), cost(1000); small != large {
		t.Errorf("ArmUntil and its run: %v allocs for 10 ticks, %v for 1000; want equal", small, large)
	}
}
