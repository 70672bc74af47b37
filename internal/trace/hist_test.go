package trace

import "testing"

// TestHistMergeEquivalence: merging histograms is indistinguishable
// from recording every observation into one — count, max and
// percentiles all agree (buckets are positional, so no re-binning).
func TestHistMergeEquivalence(t *testing.T) {
	obsA := []int64{10, 100, 1_000, 50_000}
	obsB := []int64{5, 1_000_000, 77, 3_000_000_000}
	a, b, all := NewHist(), NewHist(), NewHist()
	for _, v := range obsA {
		a.Record(v)
		all.Record(v)
	}
	for _, v := range obsB {
		b.Record(v)
		all.Record(v)
	}
	a.merge(b)
	if a.Count() != all.Count() {
		t.Fatalf("count %d != %d", a.Count(), all.Count())
	}
	if a.Max() != all.Max() {
		t.Fatalf("max %d != %d", a.Max(), all.Max())
	}
	for _, p := range []float64{0, 0.5, 0.9, 0.99, 1} {
		if got, want := a.Percentile(p), all.Percentile(p); got != want {
			t.Fatalf("p%v: %d != %d", p, got, want)
		}
	}
}

// TestHistMergeEdgeCases: empty/nil operands and asymmetric bucket
// slices (the smaller histogram must grow to take the larger's tail).
func TestHistMergeEdgeCases(t *testing.T) {
	// Merge into an empty histogram.
	empty, full := NewHist(), NewHist()
	full.Record(123)
	full.Record(4_567_890)
	empty.merge(full)
	if empty.Count() != 2 || empty.Max() != 4_567_890 {
		t.Fatalf("merge into empty lost data: count=%d max=%d", empty.Count(), empty.Max())
	}

	// Merge an empty histogram in: a no-op.
	before := full.Percentile(0.5)
	full.merge(NewHist())
	if full.Count() != 2 || full.Percentile(0.5) != before {
		t.Fatalf("merging empty changed the histogram")
	}

	// Nil receiver and nil operand are both safe.
	var nilh *Hist
	nilh.merge(full)
	full.merge(nilh)
	if full.Count() != 2 {
		t.Fatalf("nil merge changed the histogram: %d", full.Count())
	}

	// The small histogram's bucket slice must grow to fit the large
	// observation's bucket index.
	small, large := NewHist(), NewHist()
	small.Record(1)
	large.Record(1 << 40)
	small.merge(large)
	if small.Count() != 2 || small.Max() != 1<<40 {
		t.Fatalf("bucket growth lost the tail: count=%d max=%d", small.Count(), small.Max())
	}
	if p := small.Percentile(1); p < 1<<40 {
		t.Fatalf("p100 %d below the merged max bucket", p)
	}
}

// TestHistTailResolution: the p999 report at the histogram's tail must
// stay within the log-linear layout's relative error bound
// (1/2^histSubBits) of the true order statistic, for tails spanning
// several powers of two.
func TestHistTailResolution(t *testing.T) {
	const relErr = 1.0 / (1 << histSubBits)
	cases := []struct {
		name string
		body int64 // value of the 99.9% bulk
		tail int64 // value of the top 0.1%
	}{
		{"millisecond tail", 1_000_000, 9_000_000},
		{"second-scale tail", 2_000_000, 1_500_000_000},
		{"tight tail", 1_000_000, 1_100_000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := NewHist()
			const n = 10_000
			for i := 0; i < n-n/1000; i++ {
				h.Record(tc.body)
			}
			for i := 0; i < n/1000; i++ {
				h.Record(tc.tail)
			}
			got := h.Percentile(0.999)
			// The true p999 sits at the body/tail boundary; either value
			// is acceptable as long as the report stays within the
			// relative error bound of one of them.
			okNear := func(want int64) bool {
				diff := float64(got - want)
				if diff < 0 {
					diff = -diff
				}
				return diff <= relErr*float64(want)
			}
			if !okNear(tc.body) && !okNear(tc.tail) {
				t.Fatalf("p999=%d outside ±%.1f%% of both %d and %d",
					got, relErr*100, tc.body, tc.tail)
			}
			// The exact max is never smoothed away by bucketing.
			if h.Max() != tc.tail {
				t.Fatalf("max %d != %d", h.Max(), tc.tail)
			}
			if p1 := h.Percentile(1); p1 != tc.tail {
				t.Fatalf("p100 %d != exact max %d", p1, tc.tail)
			}
		})
	}
}

// TestHistTailOrdering: with a heavy tail, p999 must separate from p99
// (it reads the tail while p99 still reads the body), and an empty
// histogram reports zero for every percentile — no NaNs, no panics.
func TestHistTailOrdering(t *testing.T) {
	h := NewHist()
	const n = 10_000
	for i := 0; i < n-120; i++ {
		h.Record(1_000_000) // body: 1ms (ranks 1..9880)
	}
	for i := 0; i < 100; i++ {
		h.Record(20_000_000) // p99 band: 20ms (ranks 9881..9980)
	}
	for i := 0; i < 20; i++ {
		h.Record(400_000_000) // p999 band: 400ms (ranks 9981..10000)
	}
	p50, p99, p999 := h.Percentile(0.5), h.Percentile(0.99), h.Percentile(0.999)
	if !(p50 < p99 && p99 < p999) {
		t.Fatalf("percentiles not ordered: p50=%d p99=%d p999=%d", p50, p99, p999)
	}
	if p999 < 300_000_000 {
		t.Fatalf("p999=%d missed the 400ms tail band", p999)
	}

	empty := NewHist()
	for _, p := range []float64{0, 0.5, 0.99, 0.999, 1} {
		if v := empty.Percentile(p); v != 0 {
			t.Fatalf("empty histogram p%v = %d, want 0", p, v)
		}
	}
}

// TestHistResetKeepsBuckets: Reset zeroes the content but keeps the
// bucket slice, and the histogram is immediately reusable.
func TestHistResetKeepsBuckets(t *testing.T) {
	h := NewHist()
	h.Record(1_000_000)
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 {
		t.Fatalf("reset left residue: count=%d max=%d", h.Count(), h.Max())
	}
	h.Record(42)
	if h.Count() != 1 || h.Max() != 42 {
		t.Fatalf("histogram unusable after reset: count=%d max=%d", h.Count(), h.Max())
	}
	var nilh *Hist
	nilh.Reset() // must not panic
}
