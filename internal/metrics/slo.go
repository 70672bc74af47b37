package metrics

import (
	"fmt"

	"hades/internal/monitor"
	"hades/internal/vtime"
)

// Stat names the statistic an SLO rule extracts from a series point.
type Stat string

// Rule statistics. Value reads a counter's per-interval delta or a
// gauge's sampled level; Count, P50, P99, P999 and Max read a
// histogram's interval summary.
const (
	StatValue Stat = "value"
	StatCount Stat = "count"
	StatP50   Stat = "p50"
	StatP99   Stat = "p99"
	StatP999  Stat = "p999"
	StatMax   Stat = "max"
)

// Op is an SLO rule's comparison operator: the rule states the
// condition that should HOLD (e.g. p99 <= 40ms); an interval where it
// does not is a violating interval.
type Op string

// Rule operators.
const (
	OpLE Op = "<="
	OpLT Op = "<"
	OpGE Op = ">="
	OpGT Op = ">"
)

// valid reports whether the operator is one of the four comparisons.
func (o Op) valid() bool {
	switch o {
	case OpLE, OpLT, OpGE, OpGT:
		return true
	}
	return false
}

// valid reports whether the stat is known.
func (s Stat) valid() bool {
	switch s {
	case StatValue, StatCount, StatP50, StatP99, StatP999, StatMax:
		return true
	}
	return false
}

// Rule is one declarative SLO: "stat(metric) op threshold", breached
// after For consecutive violating intervals. Thresholds are in the
// series' raw unit (nanoseconds for latency histograms).
type Rule struct {
	// Name labels the rule in breach events and reports.
	Name string
	// Metric is the series the rule probes.
	Metric string
	// Stat selects the statistic (StatValue for counters/gauges).
	Stat Stat
	// Op compares the statistic against Threshold; the rule holds when
	// the comparison is true.
	Op Op
	// Threshold is the bound, in the series' raw unit.
	Threshold float64
	// For is the number of consecutive violating intervals before the
	// breach opens (0 and 1 both mean "immediately").
	For int
}

// Expr renders the rule as its declarative form.
func (r Rule) Expr() string {
	expr := fmt.Sprintf("%s(%s) %s %g", r.Stat, r.Metric, r.Op, r.Threshold)
	if r.For > 1 {
		expr += fmt.Sprintf(" for %d intervals", r.For)
	}
	return expr
}

// Validate checks the rule's shape (the scenario layer surfaces these
// loudly at parse time).
func (r Rule) Validate() error {
	if r.Name == "" {
		return fmt.Errorf("slo rule needs a name")
	}
	if r.Metric == "" {
		return fmt.Errorf("slo rule %q needs a metric", r.Name)
	}
	if !r.Stat.valid() {
		return fmt.Errorf("slo rule %q: unknown stat %q (want value|count|p50|p99|p999|max)", r.Name, r.Stat)
	}
	if !r.Op.valid() {
		return fmt.Errorf("slo rule %q: unknown op %q (want <=|<|>=|>)", r.Name, r.Op)
	}
	if r.For < 0 {
		return fmt.Errorf("slo rule %q: negative for-intervals %d", r.Name, r.For)
	}
	return nil
}

// Breach is one recorded SLO violation window: the onset instant, the
// clear instant (zero while still open at run end), the number of
// violating intervals it spanned and the worst observed value.
type Breach struct {
	Rule      string
	Onset     vtime.Time
	Clear     vtime.Time
	Intervals int
	Worst     float64
}

// probe is one rule's evaluation state.
type probe struct {
	r        Rule
	bad      int // consecutive violating intervals
	open     int // index+1 into breaches of the open breach, 0 = none
	evals    int
	breaches []Breach
}

func newProbe(r Rule) *probe {
	if r.For < 1 {
		r.For = 1
	}
	if r.Stat == "" {
		r.Stat = StatValue
	}
	return &probe{r: r}
}

// extract pulls the rule's statistic from the newest point of its
// series. ok is false when there is nothing to judge: no series, no
// point for this interval, or an empty histogram interval for a
// percentile stat — no data means the rule holds vacuously (and an
// open breach clears: a gone workload is not a violating one).
func (p *probe) extract(r *Registry, t vtime.Time) (float64, bool) {
	e := r.byName[p.r.Metric]
	if e == nil {
		return 0, false
	}
	pt, ok := e.series().last()
	if !ok || pt.T != t {
		return 0, false
	}
	switch p.r.Stat {
	case StatValue, StatCount:
		return float64(pt.V), true
	case StatP50:
		if pt.V == 0 {
			return 0, false
		}
		return float64(pt.P50), true
	case StatP99:
		if pt.V == 0 {
			return 0, false
		}
		return float64(pt.P99), true
	case StatP999:
		if pt.V == 0 {
			return 0, false
		}
		return float64(pt.P999), true
	case StatMax:
		if pt.V == 0 {
			return 0, false
		}
		return float64(pt.Max), true
	}
	return 0, false
}

// holds applies the rule's comparison.
func (p *probe) holds(v float64) bool {
	switch p.r.Op {
	case OpLE:
		return v <= p.r.Threshold
	case OpLT:
		return v < p.r.Threshold
	case OpGE:
		return v >= p.r.Threshold
	case OpGT:
		return v > p.r.Threshold
	}
	return true
}

// evaluate runs one probe against the interval that just scraped:
// violating intervals accumulate toward the For bound, opening a
// breach (and a monitor event) when they reach it; a holding interval
// clears any open breach with its onset/clear instants.
func (r *Registry) evaluate(p *probe, t vtime.Time) {
	v, ok := p.extract(r, t)
	if ok {
		p.evals++
	}
	if ok && !p.holds(v) {
		p.bad++
		if p.open == 0 && p.bad >= p.r.For {
			p.breaches = append(p.breaches, Breach{Rule: p.r.Name, Onset: t, Intervals: p.bad, Worst: v})
			p.open = len(p.breaches)
			r.opt.Log.Recordf(t, monitor.KindSLOBreach, -1, p.r.Name,
				"%s: observed %g (%d violating intervals)", p.r.Expr(), v, p.bad)
			return
		}
		if p.open > 0 {
			b := &p.breaches[p.open-1]
			b.Intervals++
			if worse(p.r.Op, v, b.Worst) {
				b.Worst = v
			}
		}
		return
	}
	// The rule holds (or has no data to violate): close any open breach.
	p.bad = 0
	if p.open > 0 {
		b := &p.breaches[p.open-1]
		b.Clear = t
		p.open = 0
		r.opt.Log.Recordf(t, monitor.KindSLOClear, -1, p.r.Name,
			"%s: cleared after %s (onset %s, %d intervals, worst %g)",
			p.r.Expr(), b.Clear.Sub(b.Onset), b.Onset, b.Intervals, b.Worst)
	}
}

// worse reports whether a is further past the threshold than b, in the
// direction the rule's operator fails.
func worse(op Op, a, b float64) bool {
	switch op {
	case OpLE, OpLT:
		return a > b
	default:
		return a < b
	}
}
