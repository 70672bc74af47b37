package main

import (
	"fmt"
	"io"
	"sort"

	"hades/internal/metrics"
)

// metricsCmd inspects the metrics timeline exported by hades run
// -metrics: a text timeline of every series by default, the SLO probe
// outcomes (breach windows with onset/clear instants) with -slo, the
// hottest keys and the hot shard from the space-saving sketch with -top.
func metricsCmd(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("metrics", stderr)
	var (
		slo = fs.Bool("slo", false, "print the SLO probe report: rules, evals, breach windows")
		top = fs.Int("top", 0, "print the N hottest keys and the hot shard")
	)
	if fs.Parse(args) != nil {
		return exitUsage
	}
	var doc metrics.Export
	if err := readOperand(fs, "metrics", &doc); err != nil {
		return cannot(stderr, "metrics", err)
	}
	if *slo {
		sloReport(stdout, &doc)
	}
	if *top > 0 {
		topReport(stdout, &doc, *top)
	}
	if !*slo && *top <= 0 {
		timeline(stdout, &doc)
	}
	return exitOK
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// timeline renders one line per series: an ASCII sparkline of the
// retained window plus its range, so a run's shape is readable
// without leaving the terminal.
func timeline(w io.Writer, doc *metrics.Export) {
	fmt.Fprintf(w, "%d series, %d scrapes every %.1fms\n", len(doc.Series), doc.Scrapes, ms(doc.IntervalNs))
	for _, s := range doc.Series {
		vals := make([]int64, len(s.Points))
		for i, p := range s.Points {
			vals[i] = p.V
		}
		min, max, last := rangeOf(vals)
		unit := s.Unit
		if unit == "" {
			unit = " "
		}
		fmt.Fprintf(w, "  %-24s %-7s %-4s [%s] min=%d max=%d last=%d", s.Name, s.Kind, unit, spark(vals, max), min, max, last)
		if s.Kind == "hist" {
			p99, p999 := int64(0), int64(0)
			for _, p := range s.Points {
				if p.P99 > p99 {
					p99 = p.P99
				}
				if p.P999 > p999 {
					p999 = p.P999
				}
			}
			if s.Unit == "ns" || s.Unit == "" {
				fmt.Fprintf(w, " worst-p99=%.2fms worst-p999=%.2fms", ms(p99), ms(p999))
			} else {
				fmt.Fprintf(w, " worst-p99=%d worst-p999=%d", p99, p999)
			}
		}
		if s.Dropped > 0 {
			fmt.Fprintf(w, " (+%d points evicted)", s.Dropped)
		}
		fmt.Fprintln(w)
	}
	if len(doc.SLO) > 0 || len(doc.TopKeys) > 0 {
		fmt.Fprintf(w, "(%d slo rule(s): -slo; %d hot key(s): -top N)\n", len(doc.SLO), len(doc.TopKeys))
	}
}

func rangeOf(vals []int64) (min, max, last int64) {
	for i, v := range vals {
		if i == 0 || v < min {
			min = v
		}
		if v > max {
			max = v
		}
		last = v
	}
	return
}

// spark renders values as a fixed ASCII ramp scaled against max.
func spark(vals []int64, max int64) string {
	const ramp = " .:-=+*#@"
	out := make([]byte, len(vals))
	for i, v := range vals {
		idx := 0
		if max > 0 && v > 0 {
			idx = 1 + int(int64(len(ramp)-2)*v/max)
		}
		out[i] = ramp[idx]
	}
	return string(out)
}

// sloReport prints every rule with its breach windows.
func sloReport(w io.Writer, doc *metrics.Export) {
	if len(doc.SLO) == 0 {
		fmt.Fprintln(w, "no slo rules declared")
		return
	}
	for _, r := range doc.SLO {
		status := "ok"
		if len(r.Breaches) > 0 {
			status = fmt.Sprintf("%d breach(es)", len(r.Breaches))
		}
		fmt.Fprintf(w, "%-16s %-36s evals=%-5d %s\n", r.Name, r.Expr, r.Evals, status)
		for _, b := range r.Breaches {
			clear := "open at run end"
			if b.Clear > 0 {
				clear = fmt.Sprintf("cleared %.1fms", ms(b.Clear))
			}
			fmt.Fprintf(w, "  breach onset %.1fms, %s (%d interval(s), worst %g)\n",
				ms(b.Onset), clear, b.Intervals, b.Worst)
		}
	}
}

// topReport prints the hottest keys and aggregates their touches per
// shard to name the hot shard.
func topReport(w io.Writer, doc *metrics.Export, n int) {
	if len(doc.TopKeys) == 0 {
		fmt.Fprintln(w, "no hot keys sketched (no keyed workload, or the plane was disabled)")
		return
	}
	keys := doc.TopKeys
	if n < len(keys) {
		keys = keys[:n]
	}
	var total int64
	byShard := map[int]int64{}
	for _, k := range doc.TopKeys {
		total += k.Count
		byShard[k.Shard] += k.Count
	}
	fmt.Fprintf(w, "hottest %d of %d sketched key(s):\n", len(keys), len(doc.TopKeys))
	for _, k := range keys {
		errNote := ""
		if k.Err > 0 {
			errNote = fmt.Sprintf(" (±%d)", k.Err)
		}
		fmt.Fprintf(w, "  %-16s shard %-3d ~%d touch(es)%s\n", k.Key, k.Shard, k.Count, errNote)
	}
	shards := make([]int, 0, len(byShard))
	for s := range byShard {
		shards = append(shards, s)
	}
	sort.Slice(shards, func(i, j int) bool {
		if byShard[shards[i]] != byShard[shards[j]] {
			return byShard[shards[i]] > byShard[shards[j]]
		}
		return shards[i] < shards[j]
	})
	hot := shards[0]
	fmt.Fprintf(w, "hot shard: %d (%d of %d sketched touches, %.0f%%)\n",
		hot, byShard[hot], total, float64(byShard[hot])/float64(total)*100)
}
