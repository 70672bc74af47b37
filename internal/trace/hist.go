package trace

import "math/bits"

// histSubBits sets the histogram's resolution: 2^histSubBits
// sub-buckets per power of two, bounding relative quantile error at
// 1/2^histSubBits (~3%) — the classic HDR log-linear layout, sized for
// nanosecond latencies up to hours in ~1.3k buckets.
const histSubBits = 5

// Hist is a log-linear latency histogram: constant-time Record, exact
// count and max, percentile lookup with bounded relative error.
type Hist struct {
	counts []uint64
	total  uint64
	max    int64
}

// NewHist returns an empty histogram.
func NewHist() *Hist { return &Hist{} }

// bucketOf maps a value to its log-linear bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	u := uint64(v)
	n := bits.Len64(u)
	if n <= histSubBits+1 {
		return int(u)
	}
	shift := uint(n - histSubBits - 1)
	return int(uint64(shift)<<histSubBits + u>>shift)
}

// bucketUpper returns the largest value a bucket holds.
func bucketUpper(b int) int64 {
	if b < 1<<(histSubBits+1) {
		return int64(b)
	}
	shift := uint(b>>histSubBits - 1)
	sub := int64(b) - int64(shift)<<histSubBits
	return (sub+1)<<shift - 1
}

// Record adds one observation.
func (h *Hist) Record(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	b := bucketOf(v)
	if b >= len(h.counts) {
		grown := make([]uint64, b+1)
		copy(grown, h.counts)
		h.counts = grown
	}
	h.counts[b]++
	h.total++
	if v > h.max {
		h.max = v
	}
}

// merge folds another histogram into this one bucket-by-bucket; the
// result is identical to having recorded every observation here
// (buckets are positional, so no re-binning error is introduced).
func (h *Hist) merge(o *Hist) {
	if h == nil || o == nil {
		return
	}
	if len(o.counts) > len(h.counts) {
		grown := make([]uint64, len(o.counts))
		copy(grown, h.counts)
		h.counts = grown
	}
	for b, c := range o.counts {
		h.counts[b] += c
	}
	h.total += o.total
	if o.max > h.max {
		h.max = o.max
	}
}

// Reset clears the histogram for a new interval, keeping the bucket
// slice to stay allocation-free on the scrape path.
func (h *Hist) Reset() {
	if h == nil {
		return
	}
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.total, h.max = 0, 0
}

// Count returns the number of observations.
func (h *Hist) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.total
}

// Max returns the exact largest observation.
func (h *Hist) Max() int64 {
	if h == nil {
		return 0
	}
	return h.max
}

// Percentile returns the value at quantile p in [0,1]: the upper bound
// of the bucket holding the rank-th observation, clamped to the exact
// max.
func (h *Hist) Percentile(p float64) int64 {
	if h == nil || h.total == 0 {
		return 0
	}
	if p >= 1 {
		return h.max
	}
	if p < 0 {
		p = 0
	}
	rank := uint64(p*float64(h.total) + 0.5)
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for b, c := range h.counts {
		cum += c
		if cum >= rank {
			v := bucketUpper(b)
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}
