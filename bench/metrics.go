package main

import (
	"math"
	"sort"
)

// Metric is one measured value with its unit, as printed and persisted.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Stat summarises one end-to-end metric over the timed reps of a run.
type Stat struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

// endDef fixes one end-to-end metric: its unit, direction, and the
// share of the base median by which it may worsen before -compare (and
// the driver) call a regression. floor is an absolute slack in the
// metric's own unit under which a move is never a regression — timer
// resolution on the two sub-10ms wall metrics.
type endDef struct {
	name   string
	unit   string
	higher bool
	bound  float64
	floor  float64
}

// endToEnd is the fixed end-to-end metric set. vus/vms/vs are virtual
// microseconds, milliseconds and seconds: pure functions of (code,
// seed), bit-equal across reps; the rest are host measurements.
var endToEnd = []endDef{
	{"setup_s", "s", false, 0.25, 0.002},               // median scenario.Load + Spec.Build cycle
	{"host_ops_per_s", "ops/s", true, 0.25, 0},         // ops / wall seconds of Cluster.Run(horizon)
	{"allocs_per_op", "1/op", false, 0.05, 0},          // MemStats.Mallocs delta across Run / ops
	{"bytes_per_op", "B/op", false, 0.05, 0},           // MemStats.TotalAlloc delta across Run / ops
	{"retained_heap_mb", "MB", false, 0.05, 0},         // HeapAlloc after two forced GCs at the horizon, cluster and result live
	{"finish_s", "s", false, 0.25, 0.005},              // ResultNow + verifiers + ReportNow + JSON encode
	{"vt_ack_p50_us", "vus", false, 0.10, 0},           // median op latency, virtual time
	{"vt_ack_p99_us", "vus", false, 0.25, 0},           // p99 op latency, virtual time
	{"vt_ack_max_ms", "vms", false, 0.25, 0},           // longest single op latency: the service gap a scheduled client saw
	{"vt_goodput_ops_per_vs", "ops/vs", true, 0.05, 0}, // ops / load window, virtual time
	{"ok_ratio", "ratio", true, 0.01, 0},               // 1 - fail_ratio: share of attempted ops that completed within their contract
}

func endDefByName(name string) (endDef, bool) {
	for _, d := range endToEnd {
		if d.name == name {
			return d, true
		}
	}
	return endDef{}, false
}

// quartiles returns the median and the first and third quartiles by
// the exclusive method Python's statistics.quantiles(n=4) uses, so the
// spreads this tool prints are the ones the driver computes.
func quartiles(values []float64) (q1, med, q3 float64) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return v[0], v[0], v[0]
	}
	at := func(p float64) float64 {
		pos := p * float64(n+1)
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return v[j-1] + frac*(v[j]-v[j-1])
	}
	return at(0.25), at(0.5), at(0.75)
}

func statOf(values []float64, unit string) Stat {
	q1, med, q3 := quartiles(values)
	return Stat{Median: med, Q1: q1, Q3: q3, N: len(values), Unit: unit}
}
