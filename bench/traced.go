package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
)

// tracedDefs are the per-layer metrics the traced rep yields, besides
// one cpu_share.<layer> row per entry of shareLayers.
var tracedDefs = []layerDef{
	{"simkern.ns_per_event", "ns", false, "host_ops_per_s"},
	{"simkern.ns_per_event_q4_over_q1", "ratio", false, "host_ops_per_s"},
	{"shard.verify_s", "s", false, "finish_s"},
	{"txn.verify_s", "s", false, "finish_s"},
	{"pubsub.verify_s", "s", false, "finish_s"},
	{"bench.trace_overhead_pct", "%", false, "host_ops_per_s"},
}

// tracedRun performs one extra rep with the benchmark's span recorder
// and a CPU profile on, the horizon run in four slices. The scenario is
// the timed reps' file, and the rep must reproduce their virtual-time
// metrics and report digest: slicing Run is documented as resumable and
// this checks it. baseRunS is the untraced median it is compared with.
func tracedRun(w workload, p protocol, path string, ref *rep, baseRunS float64) (map[string]float64, error) {
	rec := newRecorder(fmt.Sprintf("%s-seed%d", w.name, p.seed))
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	r, err := runRep(w, path, rec)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	if err := sameVT(ref, r); err != nil {
		return nil, fmt.Errorf("%s: traced rep (4 Run slices): %w", w.name, err)
	}
	if err := rec.writeFile(filepath.Join(outDir, "trace_"+w.name+".json")); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(outDir, "cpu_"+w.name+".prof"), prof.Bytes(), 0o644); err != nil {
		return nil, err
	}
	var wallNs int64
	for _, q := range r.quarter {
		wallNs += q.wallNs
	}
	perEvent := func(q slice) float64 { return ratio(float64(q.wallNs), float64(q.events)) }
	m := map[string]float64{
		"simkern.ns_per_event":            ratio(float64(wallNs), float64(r.events)),
		"simkern.ns_per_event_q4_over_q1": ratio(perEvent(r.quarter[3]), perEvent(r.quarter[0])),
		"shard.verify_s":                  r.verify["shard"],
		"txn.verify_s":                    r.verify["txn"],
		"pubsub.verify_s":                 r.verify["pubsub"],
		"bench.trace_overhead_pct":        (ratio(r.runS, baseRunS) - 1) * 100,
	}
	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	for layer, share := range cpuShares(samples) {
		m["cpu_share."+layer] = share
	}
	return m, nil
}
