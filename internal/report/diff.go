package report

import (
	"fmt"
	"sort"
	"strings"
)

// Delta is one compared stat.
type Delta struct {
	// Stat names the compared quantity ("throughput.achieved_per_sec",
	// "latency.kv.write/all.p99_ns").
	Stat string
	Old  float64
	New  float64
	// Frac is the fractional change in the stat's regression direction
	// (positive = worse): latency increase, throughput decrease.
	Frac float64
	// Threshold is the bound the change was judged against.
	Threshold float64
}

func (d Delta) String() string {
	return fmt.Sprintf("%-40s %14.1f -> %14.1f  %+7.1f%% (threshold %.0f%%)",
		d.Stat, d.Old, d.New, d.Frac*100, d.Threshold*100)
}

// DiffReport classifies every compared stat.
type DiffReport struct {
	// Regressions are stats worse than their threshold allows.
	Regressions []Delta
	// Improvements moved in the good direction past the threshold.
	Improvements []Delta
	// Unchanged stayed within the threshold either way.
	Unchanged []Delta
	// Added names stats present only in the new report (a new op class
	// or shard — not a regression); Removed the converse.
	Added   []string
	Removed []string
}

// HasRegressions reports whether the diff should fail a gate.
func (d *DiffReport) HasRegressions() bool { return len(d.Regressions) > 0 }

// classify files one comparison. A zero old value yields no
// meaningful fraction: the stat is treated as newly meaningful
// (added) rather than judged — a zero-throughput or empty-histogram
// baseline can only be diffed by eye.
func (d *DiffReport) classify(stat string, old, new, threshold float64, higherIsWorse bool) {
	if old == 0 {
		if new != 0 {
			d.Added = append(d.Added, stat)
		}
		return
	}
	if new == 0 && higherIsWorse {
		// A latency stat vanishing entirely (no ops) is a removal, not
		// a miraculous improvement.
		d.Removed = append(d.Removed, stat)
		return
	}
	frac := (new - old) / old
	if !higherIsWorse {
		frac = -frac
	}
	dl := Delta{Stat: stat, Old: old, New: new, Frac: frac, Threshold: threshold}
	switch {
	case frac > threshold:
		d.Regressions = append(d.Regressions, dl)
	case frac < -threshold:
		d.Improvements = append(d.Improvements, dl)
	default:
		d.Unchanged = append(d.Unchanged, dl)
	}
}

// Diff compares a new report against a baseline. threshold is the
// fractional regression bound every stat shares: an achieved-throughput
// drop, or a latency-percentile increase, must exceed it strictly to
// count as a regression (a change landing exactly on the boundary
// passes, mirroring the benchmark diff). Compared stats: achieved throughput (ops/sec,
// a drop regresses) and every shared latency row's p50/p99/p999/max
// (an increase regresses). Latency rows only in the baseline land in
// Removed, rows only in the new report in Added; neither is a
// regression — workloads grow ops classes and shards legitimately.
func Diff(old, new *Report, threshold float64) *DiffReport {
	d := &DiffReport{}
	d.classify("throughput.achieved_per_sec",
		old.Throughput.AchievedPerSec, new.Throughput.AchievedPerSec, threshold, false)

	oldRows := make(map[string]LatencyStat, len(old.Latency))
	for _, l := range old.Latency {
		oldRows[l.key()] = l
	}
	newKeys := make(map[string]bool, len(new.Latency))
	for _, l := range new.Latency {
		k := l.key()
		newKeys[k] = true
		o, ok := oldRows[k]
		if !ok {
			d.Added = append(d.Added, "latency."+k)
			continue
		}
		// Rows with no observations on either side have nothing to
		// judge; a side going to zero ops is handled per-stat.
		pre := "latency." + k + "."
		d.classify(pre+"p50_ns", float64(o.P50Ns), float64(l.P50Ns), threshold, true)
		d.classify(pre+"p99_ns", float64(o.P99Ns), float64(l.P99Ns), threshold, true)
		d.classify(pre+"p999_ns", float64(o.P999Ns), float64(l.P999Ns), threshold, true)
		d.classify(pre+"max_ns", float64(o.MaxNs), float64(l.MaxNs), threshold, true)
	}
	for k := range oldRows {
		if !newKeys[k] {
			d.Removed = append(d.Removed, "latency."+k)
		}
	}

	// Per-generator attribution rows: shared load rows compare their
	// own percentiles under the same threshold. Baselines
	// written before load rows carried latency hold zeros there, which
	// classify as Added — an enriched report never regresses an old
	// baseline structurally.
	oldLoads := make(map[string]LoadStat, len(old.Loads))
	for _, l := range old.Loads {
		oldLoads[l.Name] = l
	}
	newLoads := make(map[string]bool, len(new.Loads))
	for _, l := range new.Loads {
		newLoads[l.Name] = true
		o, ok := oldLoads[l.Name]
		if !ok {
			d.Added = append(d.Added, "loads."+l.Name)
			continue
		}
		pre := "loads." + l.Name + "."
		d.classify(pre+"p50_ns", float64(o.P50Ns), float64(l.P50Ns), threshold, true)
		d.classify(pre+"p99_ns", float64(o.P99Ns), float64(l.P99Ns), threshold, true)
		d.classify(pre+"p999_ns", float64(o.P999Ns), float64(l.P999Ns), threshold, true)
		d.classify(pre+"max_ns", float64(o.MaxNs), float64(l.MaxNs), threshold, true)
	}
	for name := range oldLoads {
		if !newLoads[name] {
			d.Removed = append(d.Removed, "loads."+name)
		}
	}
	sortDeltas(d.Regressions)
	sortDeltas(d.Improvements)
	sortDeltas(d.Unchanged)
	sort.Strings(d.Added)
	sort.Strings(d.Removed)
	return d
}

// sortDeltas orders worst-first, name-stable.
func sortDeltas(ds []Delta) {
	sort.Slice(ds, func(i, j int) bool {
		if ds[i].Frac != ds[j].Frac {
			return ds[i].Frac > ds[j].Frac
		}
		return ds[i].Stat < ds[j].Stat
	})
}

// String renders the diff for the terminal.
func (d *DiffReport) String() string {
	var sb strings.Builder
	section := func(title string, ds []Delta) {
		if len(ds) == 0 {
			return
		}
		fmt.Fprintf(&sb, "%s (%d):\n", title, len(ds))
		for _, dl := range ds {
			fmt.Fprintf(&sb, "  %s\n", dl)
		}
	}
	section("REGRESSIONS", d.Regressions)
	section("improvements", d.Improvements)
	if len(d.Added) > 0 {
		fmt.Fprintf(&sb, "added (%d): %s\n", len(d.Added), strings.Join(d.Added, ", "))
	}
	if len(d.Removed) > 0 {
		fmt.Fprintf(&sb, "removed (%d): %s\n", len(d.Removed), strings.Join(d.Removed, ", "))
	}
	fmt.Fprintf(&sb, "%d stat(s) within threshold\n", len(d.Unchanged))
	return sb.String()
}
