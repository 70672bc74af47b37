package trace

import (
	"bytes"
	"encoding/json"
	"testing"

	"hades/internal/vtime"
)

func clock(now *vtime.Time) func() vtime.Time {
	return func() vtime.Time { return *now }
}

// TestNilSafety exercises every method on nil receivers: call sites
// are unconditional, so a disabled tracer must be inert everywhere.
func TestNilSafety(t *testing.T) {
	var tc *Tracer
	tr := tc.Begin("kv.write", 0)
	if tr != nil {
		t.Fatal("nil tracer minted a trace")
	}
	sp := tr.Span("x", LayerQueue)
	sp.End()
	tr.instant("retry %d", 1)
	tr.Violate("boom")
	tr.SetLabel("l")
	tr.SetClass("c")
	tr.Finish()
	if tr.duration() != 0 {
		t.Fatal("nil trace reported data")
	}
	if got := tc.Stats(); got != nil {
		t.Fatal("nil tracer reported stats")
	}
	if got := tc.Retained(); got != nil {
		t.Fatal("nil tracer retained traces")
	}
}

// TestLayerPartition checks the breakdown sweep: overlapping spans
// attribute by priority and the layers partition the root exactly.
func TestLayerPartition(t *testing.T) {
	now := vtime.Time(0)
	tc := New(1, 1, clock(&now))
	tr := tc.Begin("kv.write", 0)

	// [0,10us] queue, [10,20us] batch, [20,60us] wire with a
	// replicate span [30,50us] inside it and a lock span [40,45us]
	// inside that; [60,70us] uncovered (other).
	q := tr.Span("queue", LayerQueue)
	now = vtime.Time(10 * vtime.Microsecond)
	q.End()
	b := tr.Span("batch", LayerBatch)
	now = vtime.Time(20 * vtime.Microsecond)
	b.End()
	w := tr.Span("wire", LayerWire)
	now = vtime.Time(30 * vtime.Microsecond)
	r := tr.Span("replicate", LayerReplicate)
	now = vtime.Time(40 * vtime.Microsecond)
	l := tr.Span("lock", LayerLock)
	now = vtime.Time(45 * vtime.Microsecond)
	l.End()
	now = vtime.Time(50 * vtime.Microsecond)
	r.End()
	now = vtime.Time(60 * vtime.Microsecond)
	w.End()
	now = vtime.Time(70 * vtime.Microsecond)
	tr.Finish()

	lt := tr.layers
	us := vtime.Microsecond
	want := LayerTimes{Queue: 10 * us, Batch: 10 * us, Wire: 20 * us, Replicate: 15 * us, Lock: 5 * us, Other: 10 * us}
	if lt != want {
		t.Fatalf("layers = %+v, want %+v", lt, want)
	}
	if lt.Total() != tr.duration() {
		t.Fatalf("layer total %v != duration %v", lt.Total(), tr.duration())
	}
}

// TestSamplingAndViolationRetention: rate 0 retains nothing except
// violating traces; histograms still observe everything; a violation
// after Finish promotes the trace.
func TestSamplingAndViolationRetention(t *testing.T) {
	now := vtime.Time(0)
	tc := New(42, 0, clock(&now))
	var late *Trace
	for i := 0; i < 10; i++ {
		tr := tc.Begin("kv.write", 0)
		now = now.Add(vtime.Duration(i+1) * vtime.Microsecond)
		if i == 3 {
			tr.Violate("abort")
		}
		tr.Finish()
		if i == 5 {
			late = tr
		}
	}
	if got := len(tc.Retained()); got != 1 {
		t.Fatalf("retained %d traces at rate 0, want 1 (the violating one)", got)
	}
	if len(tc.Retained()[0].viols) == 0 {
		t.Fatal("retained trace is not the violating one")
	}
	st := tc.Stats()
	if len(st) != 2 || st[1].Count != 10 {
		t.Fatalf("stats = %+v, want 10 observations in both scopes", st)
	}
	late.Violate("omission: dropped in flight")
	if got := len(tc.Retained()); got != 2 {
		t.Fatalf("late violation did not promote: retained %d", got)
	}
	_, _, retained, violating := tc.Counts()
	if retained != 2 || violating != 2 {
		t.Fatalf("counts retained=%d violating=%d, want 2/2", retained, violating)
	}
}

// TestSamplingDeterministicAndProportional: the hash sampler is pure
// in (seed, id) and lands near the configured rate.
func TestSamplingDeterministicAndProportional(t *testing.T) {
	now := vtime.Time(0)
	mk := func() []bool {
		tc := New(7, 0.3, clock(&now))
		out := make([]bool, 1000)
		for i := range out {
			out[i] = tc.Begin("c", 0).sampled
		}
		return out
	}
	a, b := mk(), mk()
	hits := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("sampling not deterministic across tracers with same seed")
		}
		if a[i] {
			hits++
		}
	}
	if hits < 240 || hits > 360 {
		t.Fatalf("rate 0.3 sampled %d/1000", hits)
	}
}

func TestHistPercentiles(t *testing.T) {
	h := NewHist()
	for v := int64(1); v <= 10000; v++ {
		h.Record(v)
	}
	if h.Count() != 10000 || h.Max() != 10000 {
		t.Fatalf("count=%d max=%d", h.Count(), h.Max())
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{{0.5, 5000}, {0.99, 9900}, {0.999, 9990}, {1, 10000}} {
		got := h.Percentile(c.p)
		lo := c.want - c.want/16
		hi := c.want + c.want/16
		if got < lo || got > hi {
			t.Fatalf("p%v = %d, want within [%d,%d]", c.p, got, lo, hi)
		}
	}
	if NewHist().Percentile(0.5) != 0 {
		t.Fatal("empty hist percentile != 0")
	}
}

func TestHistBucketsMonotonic(t *testing.T) {
	prev := -1
	for v := int64(0); v < 1<<20; v += 37 {
		b := bucketOf(v)
		if b < prev {
			t.Fatalf("bucketOf(%d) = %d < previous %d", v, b, prev)
		}
		prev = b
		if up := bucketUpper(b); up < v {
			t.Fatalf("bucketUpper(%d) = %d < value %d", b, up, v)
		}
	}
}

// TestChromeExport: exported JSON parses, carries the span tree, the
// violation instants and, on the root alone, the sealed layer breakdown,
// and is byte-identical across identical inputs.
func TestChromeExport(t *testing.T) {
	build := func() *Tracer {
		now := vtime.Time(0)
		tc := New(3, 1, clock(&now))
		tr := tc.Begin("txn.commit", 1)
		tr.SetLabel("t6.1")
		// Parallel prepares open at the same instant, and a lock wait
		// inside one outlives the other: no nesting of the spans
		// reproduces the breakdown, only the tracer's sweep does.
		s0 := tr.Span("2pc.prepare.s0", LayerWire)
		s1 := tr.Span("2pc.prepare.s1", LayerWire)
		now = vtime.Time(2 * vtime.Microsecond)
		lk := tr.Span("lock.wait.s1", LayerLock)
		now = vtime.Time(5 * vtime.Microsecond)
		s0.End()
		now = vtime.Time(6 * vtime.Microsecond)
		lk.End()
		now = vtime.Time(7 * vtime.Microsecond)
		s1.End()
		tr.instant("retry 1/8")
		tr.Violate("deadline")
		now = vtime.Time(9 * vtime.Microsecond)
		tr.Finish()
		return tc
	}
	var a, b bytes.Buffer
	if err := WriteChrome(&a, build().Retained()); err != nil {
		t.Fatal(err)
	}
	if err := WriteChrome(&b, build().Retained()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("export not byte-deterministic")
	}
	var doc ChromeDoc
	if err := json.Unmarshal(a.Bytes(), &doc); err != nil {
		t.Fatalf("export does not parse: %v", err)
	}
	var spans, instants int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			if got := ev.Args.Layers; spans == 0 {
				us := vtime.Microsecond
				want := LayerTimes{Wire: 3 * us, Lock: 4 * us, Other: 2 * us}
				if got == nil || *got != want {
					t.Fatalf("root layers = %+v, want %+v", got, want)
				}
				if got.Total().Micros() != *ev.Dur {
					t.Fatalf("root layers sum to %gus, root lasts %gus", got.Total().Micros(), *ev.Dur)
				}
			} else if got != nil {
				t.Fatalf("span %s carries layers %+v; only the root does", ev.Name, got)
			}
			spans++
		case "i":
			instants++
		}
	}
	if spans != 4 {
		t.Fatalf("exported %d spans, want 4 (root + two prepares + lock)", spans)
	}
	if instants != 2 {
		t.Fatalf("exported %d instants, want 2 (retry + violation)", instants)
	}
}
