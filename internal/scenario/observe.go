package scenario

import (
	"fmt"

	"hades/internal/cluster"
	"hades/internal/metrics"
	"hades/internal/vtime"
)

// ObserveSpec tunes the run's observability plane: causal-trace
// sampling and the metrics plane. All fields are optional; a malformed
// value is rejected loudly rather than clamped. The monitor log keeps
// the cluster's default window; its violations and fault timeline are
// complete whatever the window holds.
type ObserveSpec struct {
	// TraceSampleRate is the fraction of finished traces retained with
	// full span trees, within [0,1] (violating traces — deadline
	// misses, aborts, omission-hit ops — are always retained
	// regardless). Omitted selects the cluster default (0.1); the
	// builtins pin 1.0 so every exported run is fully walkable.
	// Percentile aggregation observes every trace whatever the rate.
	TraceSampleRate *float64 `json:"traceSampleRate,omitempty"`
	// Metrics tunes the virtual-time metrics plane (omitted keeps the
	// plane on with its defaults).
	Metrics *MetricsSpec `json:"metrics,omitempty"`
}

// MetricsSpec tunes the metrics plane from the scenario file: whether
// it runs and its declarative SLO rules. Its sizes are the metrics
// package's constants. Malformed rules are rejected loudly at load
// time rather than clamped.
type MetricsSpec struct {
	// Disabled turns the plane off entirely (no instruments, no
	// scrapes, no export).
	Disabled bool `json:"disabled,omitempty"`
	// SLO declares the threshold rules evaluated each interval.
	SLO []SLORuleSpec `json:"slo,omitempty"`
}

// SLORuleSpec is one declarative SLO rule: "stat(metric) op threshold",
// breached at the first violating scrape interval.
// Exactly one of Threshold (raw series units) and ThresholdMs
// (milliseconds, for the nanosecond latency histograms) may be set.
type SLORuleSpec struct {
	Name   string `json:"name"`
	Metric string `json:"metric"`
	// Stat is "value" (counters/gauges; the default), "count", "p50",
	// "p99" or "max" (histograms).
	Stat string `json:"stat,omitempty"`
	// Op is "<=", "<", ">=" or ">": the comparison that should HOLD.
	Op string `json:"op"`
	// Threshold is the bound in the series' raw unit; ThresholdMs the
	// same bound in milliseconds (latency histograms record ns).
	Threshold   float64 `json:"threshold,omitempty"`
	ThresholdMs float64 `json:"thresholdMs,omitempty"`
}

// rule lowers the spec form to the metrics-plane rule.
func (r SLORuleSpec) rule() metrics.Rule {
	stat := r.Stat
	if stat == "" {
		stat = string(metrics.StatValue)
	}
	th := r.Threshold
	if r.ThresholdMs != 0 {
		th = r.ThresholdMs * float64(vtime.Millisecond)
	}
	return metrics.Rule{
		Name: r.Name, Metric: r.Metric, Stat: metrics.Stat(stat),
		Op: metrics.Op(r.Op), Threshold: th,
	}
}

// validateObserve rejects malformed observability knobs loudly rather
// than clamping them.
func (s Spec) validateObserve() error {
	o := s.Observe
	if o == nil {
		return nil
	}
	if o.TraceSampleRate != nil && (*o.TraceSampleRate < 0 || *o.TraceSampleRate > 1) {
		return fmt.Errorf("scenario %q: observe traceSampleRate must be within [0,1] (got %g)", s.Name, *o.TraceSampleRate)
	}
	m := o.Metrics
	if m == nil {
		return nil
	}
	if m.Disabled && len(m.SLO) > 0 {
		return fmt.Errorf("scenario %q: observe metrics declares %d slo rules but the plane is disabled", s.Name, len(m.SLO))
	}
	for i, r := range m.SLO {
		if r.Threshold != 0 && r.ThresholdMs != 0 {
			return fmt.Errorf("scenario %q: slo rule %d (%q) sets both threshold and thresholdMs", s.Name, i, r.Name)
		}
		if err := r.rule().Validate(); err != nil {
			return fmt.Errorf("scenario %q: slo rule %d: %v", s.Name, i, err)
		}
	}
	return nil
}

// configure lowers the block onto the cluster configuration; a nil
// block leaves the cluster's defaults in force.
func (o *ObserveSpec) configure(cfg cluster.Config) cluster.Config {
	if o == nil {
		return cfg
	}
	if o.TraceSampleRate != nil {
		cfg.Trace = &cluster.TraceParams{SampleRate: *o.TraceSampleRate}
	}
	if m := o.Metrics; m != nil {
		mp := &cluster.MetricsParams{Disabled: m.Disabled}
		for _, r := range m.SLO {
			mp.Rules = append(mp.Rules, r.rule())
		}
		cfg.Metrics = mp
	}
	return cfg
}
