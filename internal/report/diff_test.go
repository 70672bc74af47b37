package report

import (
	"strings"
	"testing"
)

// pair builds an identical baseline/new report pair; tests mutate the
// new side.
func pair() (*Report, *Report) {
	return sample(), sample()
}

func hasStat(ds []Delta, stat string) bool {
	for _, d := range ds {
		if d.Stat == stat {
			return true
		}
	}
	return false
}

func TestDiffIdenticalReports(t *testing.T) {
	old, new := pair()
	d := Diff(old, new, 0.10)
	if d.HasRegressions() {
		t.Fatalf("identical reports regressed: %v", d.Regressions)
	}
	if len(d.Improvements) != 0 || len(d.Added) != 0 || len(d.Removed) != 0 {
		t.Fatalf("identical reports not all unchanged: %+v", d)
	}
	// throughput + 2 rows × 4 percentile stats.
	if len(d.Unchanged) != 9 {
		t.Fatalf("compared %d stats, want 9", len(d.Unchanged))
	}
}

func TestDiffCatchesP99Regression(t *testing.T) {
	old, new := pair()
	new.Latency[0].P99Ns = old.Latency[0].P99Ns * 2
	d := Diff(old, new, 0.10)
	if !d.HasRegressions() {
		t.Fatal("doubled p99 not flagged")
	}
	if !hasStat(d.Regressions, "latency.kv.ack/all.p99_ns") {
		t.Fatalf("regressions missing the p99 row: %v", d.Regressions)
	}
}

func TestDiffThroughputDirection(t *testing.T) {
	old, new := pair()
	// A 50% achieved-throughput DROP is the regression direction.
	new.Throughput.Achieved = old.Throughput.Achieved / 2
	new.Finalize()
	d := Diff(old, new, 0.10)
	if !hasStat(d.Regressions, "throughput.achieved_per_sec") {
		t.Fatalf("halved throughput not a regression: %+v", d)
	}
	// And a rise is an improvement, not a regression.
	old2, new2 := pair()
	new2.Throughput.Achieved = old2.Throughput.Achieved * 2
	new2.Finalize()
	d = Diff(old2, new2, 0.10)
	if d.HasRegressions() {
		t.Fatalf("doubled throughput regressed: %v", d.Regressions)
	}
	if !hasStat(d.Improvements, "throughput.achieved_per_sec") {
		t.Fatalf("doubled throughput not an improvement: %+v", d)
	}
}

// TestDiffThresholdBoundary: a change landing exactly on the threshold
// passes (strictly-greater-than, mirroring the benchmark diff); one
// epsilon above fails.
func TestDiffThresholdBoundary(t *testing.T) {
	old, new := pair()
	// Exactly +10% on a 0.10 threshold: 4_000_000 → 4_400_000.
	new.Latency[0].P99Ns = 4_400_000
	d := Diff(old, new, 0.10)
	if d.HasRegressions() {
		t.Fatalf("boundary change flagged as regression: %v", d.Regressions)
	}
	if !hasStat(d.Unchanged, "latency.kv.ack/all.p99_ns") {
		t.Fatalf("boundary change not judged unchanged: %+v", d)
	}
	new.Latency[0].P99Ns = 4_400_001
	d = Diff(old, new, 0.10)
	if !d.HasRegressions() {
		t.Fatal("change just past the threshold passed")
	}
}

// TestDiffMissingRowInBaseline: a latency row only in the new report
// is Added, not a regression; a row only in the baseline is Removed.
func TestDiffMissingRowInBaseline(t *testing.T) {
	old, new := pair()
	new.Latency = append(new.Latency, LatencyStat{
		Class: "txn.commit", Shard: -1, Count: 10,
		P50Ns: 1, P99Ns: 2, P999Ns: 3, MaxNs: 4,
	})
	d := Diff(old, new, 0.10)
	if d.HasRegressions() {
		t.Fatalf("added row regressed: %v", d.Regressions)
	}
	if len(d.Added) != 1 || d.Added[0] != "latency.txn.commit/all" {
		t.Fatalf("added = %v, want [latency.txn.commit/all]", d.Added)
	}
	// Reverse direction: the row vanishes from the new report.
	d = Diff(new, old, 0.10)
	if d.HasRegressions() {
		t.Fatalf("removed row regressed: %v", d.Regressions)
	}
	if len(d.Removed) != 1 || d.Removed[0] != "latency.txn.commit/all" {
		t.Fatalf("removed = %v, want [latency.txn.commit/all]", d.Removed)
	}
}

// TestDiffZeroBaseline: a zero-valued baseline stat (zero-throughput
// run, empty histogram) yields no fraction — the stat lands in Added
// when it becomes meaningful, and is skipped when both sides are zero.
func TestDiffZeroBaseline(t *testing.T) {
	old, new := pair()
	old.Throughput.Achieved = 0
	old.Throughput.AchievedPerSec = 0
	old.Latency[0].P999Ns = 0 // empty-tail baseline histogram
	d := Diff(old, new, 0.10)
	if d.HasRegressions() {
		t.Fatalf("zero baseline produced regressions: %v", d.Regressions)
	}
	for _, stat := range []string{"throughput.achieved_per_sec", "latency.kv.ack/all.p999_ns"} {
		found := false
		for _, a := range d.Added {
			if a == stat {
				found = true
			}
		}
		if !found {
			t.Fatalf("zero-baseline stat %q not in added: %v", stat, d.Added)
		}
	}
	// Both sides zero: skipped entirely.
	new.Latency[0].P999Ns = 0
	d = Diff(old, new, 0.10)
	for _, a := range d.Added {
		if a == "latency.kv.ack/all.p999_ns" {
			t.Fatal("both-zero stat reported as added")
		}
	}
}

// TestDiffVanishingLatency: a latency stat going to zero while the
// row survives is a removal, not an improvement.
func TestDiffVanishingLatency(t *testing.T) {
	old, new := pair()
	new.Latency[0].MaxNs = 0
	d := Diff(old, new, 0.10)
	if hasStat(d.Improvements, "latency.kv.ack/all.max_ns") {
		t.Fatal("vanished max judged an improvement")
	}
	found := false
	for _, r := range d.Removed {
		if r == "latency.kv.ack/all.max_ns" {
			found = true
		}
	}
	if !found {
		t.Fatalf("vanished max not in removed: %v", d.Removed)
	}
}

func TestDiffStringSections(t *testing.T) {
	old, new := pair()
	new.Latency[0].P99Ns *= 3
	out := Diff(old, new, 0.10).String()
	for _, want := range []string{"REGRESSIONS (1):", "latency.kv.ack/all.p99_ns", "within threshold"} {
		if !strings.Contains(out, want) {
			t.Fatalf("diff rendering missing %q:\n%s", want, out)
		}
	}
}
