package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// verdict is -compare's judgement of one end-to-end metric on one
// workload.
type verdict string

const (
	better     verdict = "better"
	same       verdict = "same"
	worse      verdict = "worse"
	unresolved verdict = "unresolved"
)

// judge applies a metric's bound to a base and a new measurement. limit
// is the larger of bound x |base median| and the metric's absolute
// floor. A move counts as worse (or better) only when the new run's
// whole interquartile range lies past the limit; when the median is
// past it but the near quartile is not, or when either side's own
// spread is wider than the limit, the pair cannot resolve a move of
// that size and the verdict is unresolved, not same.
func judge(d endDef, base, cur Stat) verdict {
	limit := math.Max(d.bound*math.Abs(base.Median), d.floor)
	// Orient so that larger is worse; best and worst are the new run's
	// quartiles nearest to and farthest from "good".
	sign, best, worst := 1.0, cur.Q1, cur.Q3
	if d.higher {
		sign, best, worst = -1, cur.Q3, cur.Q1
	}
	med := sign * (cur.Median - base.Median)
	nearWorse, nearBetter := sign*(best-base.Median), sign*(worst-base.Median)
	switch {
	case nearWorse > limit:
		return worse
	case nearBetter < -limit:
		return better
	case math.Abs(med) > limit:
		return unresolved
	case base.Q3-base.Q1 > limit || cur.Q3-cur.Q1 > limit:
		return unresolved
	}
	return same
}

func readResults(path string) (*resultsDoc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc resultsDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s is not a results document: %w", path, err)
	}
	if len(doc.Workloads) == 0 {
		return nil, fmt.Errorf("%s holds no workload", path)
	}
	return &doc, nil
}

// A per-layer row is listed as a mover when it changed at all, if it is
// an exact count (deterministic for a scenario file, so any change is a
// change in behaviour), and otherwise when it moved by more than
// hostMoverShare of its base and by more than its unit's absolute
// slack: host-time rows wander by tens of percent between two runs of
// one commit on a shared box, and a share of 0.003 doubling is not
// news. Movers explain; they are not judged.
const hostMoverShare = 0.25

var moverSlack = map[string]float64{"ratio": 0.03, "%": 10, "s": 0.005}

type mover struct {
	where, name string
	base, cur   float64
}

func (m mover) change() float64 { return ratio(m.cur-m.base, math.Abs(m.base)) }

func movers(where string, base, cur map[string]Metric) []mover {
	exact := map[string]bool{}
	for _, d := range append(append([]layerDef(nil), countDefs...), sweepDefs()...) {
		exact[d.name] = true
	}
	var out []mover
	for name, b := range base {
		c, ok := cur[name]
		if !ok || b.Value == c.Value {
			continue
		}
		m := mover{where, name, b.Value, c.Value}
		delta := math.Abs(c.Value - b.Value)
		if exact[name] || (delta > hostMoverShare*math.Abs(b.Value) && delta > moverSlack[b.Unit]) {
			out = append(out, m)
		}
	}
	return out
}

// runCompare applies the bounds to two results documents, one row per
// workload and end-to-end metric, lists the per-layer movers, and exits
// 1 when any row is worse.
func runCompare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "bench: -compare needs two results documents: base.json new.json")
		return 2
	}
	base, err := readResults(args[0])
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	cur, err := readResults(args[1])
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	byName := map[string]*workloadResult{}
	for _, w := range cur.Workloads {
		byName[w.Name] = w
	}
	counts := map[verdict]int{}
	var moved []mover
	fmt.Fprintf(stdout, "%-18s %-24s %14s %14s %18s %7s  %s\n", "workload", "metric", "base", "new", "new/base", "bound", "verdict")
	for _, bw := range base.Workloads {
		cw, ok := byName[bw.Name]
		if !ok {
			fmt.Fprintf(stderr, "bench: %s has no workload %s\n", args[1], bw.Name)
			return 2
		}
		if bw.Seed != cw.Seed || bw.HorizonMs != cw.HorizonMs {
			fmt.Fprintf(stderr, "bench: %s ran at seed %d horizon %g, %s at seed %d horizon %g: not comparable\n",
				args[0], bw.Seed, bw.HorizonMs, args[1], cw.Seed, cw.HorizonMs)
			return 2
		}
		for _, d := range endToEnd {
			b, c := bw.EndToEnd[d.name], cw.EndToEnd[d.name]
			v := judge(d, b, c)
			counts[v]++
			fmt.Fprintf(stdout, "%-18s %-24s %14.6g %14.6g %18s %6.1f%%  %s\n", bw.Name, d.name, b.Median, c.Median,
				fmt.Sprintf("%.4f of %.4g", ratio(c.Median, b.Median), b.Median), 100*d.bound, v)
		}
		moved = append(moved, movers(bw.Name, bw.PerLayer, cw.PerLayer)...)
	}
	moved = append(moved, movers("layers", base.Layers, cur.Layers)...)
	sort.Slice(moved, func(i, j int) bool {
		if ci, cj := math.Abs(moved[i].change()), math.Abs(moved[j].change()); ci != cj {
			return ci > cj
		}
		return moved[i].where+moved[i].name < moved[j].where+moved[j].name
	})
	fmt.Fprintf(stdout, "\nper-layer movers (exact counts that changed; host-time rows that moved by more than %.0f%%; not judged): %d\n", 100*hostMoverShare, len(moved))
	for _, m := range moved {
		fmt.Fprintf(stdout, "%-18s %-42s %14.6g -> %-14.6g %+.1f%%\n", m.where, m.name, m.base, m.cur, 100*m.change())
	}
	fmt.Fprintf(stdout, "\nbetter=%d same=%d worse=%d unresolved=%d\n", counts[better], counts[same], counts[worse], counts[unresolved])
	if counts[worse] > 0 {
		return 1
	}
	return 0
}
