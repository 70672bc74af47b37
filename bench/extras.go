package main

import (
	"fmt"

	"hades/internal/scenario"
)

// ablationDefs are the two plane-ablation metrics: how much slower the
// default run is than one with the plane turned down through the
// scenario file's own observe block.
var ablationDefs = []layerDef{
	{"trace.host_overhead_pct", "%", false, "host_ops_per_s"},
	{"metrics.host_overhead_pct", "%", false, "host_ops_per_s"},
}

// ablate reruns the workload with one observability plane turned down
// at a time and compares the median Run time with the default's. The
// scenario format has no switch that turns tracing off, so the tracing
// variant pins traceSampleRate to 0: it measures span-tree retention,
// not the always-on percentile aggregation. Both planes are documented
// as passive, so every virtual-time metric must equal the default's.
func ablate(w workload, p protocol, ref *rep, baseRunS float64, reps int) (map[string]float64, error) {
	zero := 0.0
	variants := []struct {
		metric, label string
		observe       scenario.ObserveSpec
	}{
		{"trace.host_overhead_pct", "_trace0", scenario.ObserveSpec{TraceSampleRate: &zero}},
		{"metrics.host_overhead_pct", "_nometrics", scenario.ObserveSpec{Metrics: &scenario.MetricsSpec{Disabled: true}}},
	}
	out := map[string]float64{}
	for _, v := range variants {
		spec := w.spec(p.seed, w.horizonMs*p.scale)
		spec.Observe = &v.observe
		path, err := writeScenario(outDir, spec, v.label)
		if err != nil {
			return nil, err
		}
		var runs []float64
		want := ref.acct.vt()
		for i := 0; i < reps; i++ {
			r, err := runRep(w, path, nil)
			if err != nil {
				return nil, err
			}
			for name, val := range r.acct.vt() {
				if want[name] != val {
					return nil, fmt.Errorf("%s: %s changed %s from %v to %v: the plane is not passive",
						w.name, v.label, name, want[name], val)
				}
			}
			runs = append(runs, r.runS)
		}
		_, med, _ := quartiles(runs)
		out[v.metric] = (ratio(baseRunS, med) - 1) * 100
	}
	return out, nil
}

// sweepRates are the open-loop arrival rates of the virtual-time rate
// sweep, ops per virtual second, ascending.
var sweepRates = []float64{4000, 8000, 16000, 24000, 32000}

// sweepP99LimitUs and sweepMinAcked are the sweep's service limit: p99
// within 5 virtual ms with at least 99.9% of offered ops acked once the
// drain tail has passed.
const (
	sweepP99LimitUs = 5000
	sweepMinAcked   = 0.999
)

func sweepDefs() []layerDef {
	var defs []layerDef
	for _, rate := range sweepRates {
		defs = append(defs, layerDef{fmt.Sprintf("load.vt_p99_us_at_%g", rate), "vus", false, "vt_ack_p99_us"})
	}
	return append(defs, layerDef{"load.max_rate_under_limit", "ops/vs", true, "vt_goodput_ops_per_vs"})
}

// sweep runs the kv-steady topology open-loop at each rate for windowMs
// of virtual time. The values are exact: one rep each.
func sweep(seed int64, windowMs float64) (map[string]float64, error) {
	kv, _ := workloadByName("kv-steady")
	out := map[string]float64{"load.max_rate_under_limit": 0}
	held := true
	for _, rate := range sweepRates {
		path, err := writeScenario(outDir, sweepSpec(seed, rate, windowMs), "")
		if err != nil {
			return nil, err
		}
		r, err := runRep(kv, path, nil)
		if err != nil {
			return nil, err
		}
		p99 := float64(r.acct.P99) / 1e3
		out[fmt.Sprintf("load.vt_p99_us_at_%g", rate)] = p99
		ok := p99 <= sweepP99LimitUs && float64(r.acct.Ops) >= sweepMinAcked*float64(r.acct.Attempted)
		// The highest rate that holds with every lower rate holding too.
		if held = held && ok; held {
			out["load.max_rate_under_limit"] = rate
		}
	}
	return out, nil
}
