package load

import (
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"hades/internal/vtime"
)

// sim is a minimal deterministic event loop standing in for the
// engine: callbacks fire in (instant, insertion) order.
type sim struct {
	now    vtime.Time
	events []simEvent
	seq    int
}

type simEvent struct {
	at  vtime.Time
	seq int
	fn  func()
}

func (s *sim) At(t vtime.Time, fn func()) {
	s.seq++
	s.events = append(s.events, simEvent{at: t, seq: s.seq, fn: fn})
}

func (s *sim) Now() vtime.Time { return s.now }

// run drains the queue up to the horizon (linear scan: test-sized).
func (s *sim) run(until vtime.Time) {
	for {
		best := -1
		for i, e := range s.events {
			if best < 0 || e.at < s.events[best].at ||
				(e.at == s.events[best].at && e.seq < s.events[best].seq) {
				best = i
			}
		}
		if best < 0 {
			return
		}
		e := s.events[best]
		s.events = append(s.events[:best], s.events[best+1:]...)
		if e.at > until {
			return
		}
		s.now = e.at
		e.fn()
	}
}

// arrival is one recorded submission.
type arrival struct {
	at  vtime.Time
	key string
}

// runKV drives a generator through the sim with a fixed ack latency
// and records every submission.
func runKV(t *testing.T, cfg Config, ackAfter vtime.Duration, until vtime.Time) (*Generator, []arrival) {
	t.Helper()
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g, driveKV(g, ackAfter, until)
}

// driveKV starts g against a sim whose keyed writes ack after ackAfter
// and runs it to until, returning the submissions.
func driveKV(g *Generator, ackAfter vtime.Duration, until vtime.Time) []arrival {
	s := &sim{}
	var got []arrival
	g.Start(Sinks{
		At:  s.At,
		Now: s.Now,
		SubmitKV: func(key string, cmd int64, done func()) {
			got = append(got, arrival{at: s.now, key: key})
			if done != nil {
				s.At(s.now.Add(ackAfter), done)
			}
		},
	})
	s.run(until)
	return got
}

func TestValidate(t *testing.T) {
	keys := []string{"a", "b", "c"}
	window := func(c Config) Config {
		c.End = vtime.Time(vtime.Second)
		return c
	}
	cases := []struct {
		name    string
		cfg     Config
		wantErr string // "" = accepted
	}{
		{"unnamed", window(Config{Keys: keys, Sessions: 1}), "needs a name"},
		{"no keys", window(Config{Name: "g", Sessions: 1}), "at least one key"},
		{"txn one key", window(Config{Name: "g", Workload: Txn, Keys: []string{"a"}, Sessions: 1}), "at least two keys"},
		{"negative skew", window(Config{Name: "g", Keys: keys, Sessions: 1, ZipfSkew: -1}), "negative zipfSkew"},
		{"empty window", Config{Name: "g", Keys: keys, Sessions: 1}, "empty submission window"},
		{"closed no sessions", window(Config{Name: "g", Keys: keys}), "at least 1 session"},
		{"closed negative think", window(Config{Name: "g", Keys: keys, Sessions: 1, Think: -1}), "negative think"},
		{"closed with rate", window(Config{Name: "g", Keys: keys, Sessions: 1, Rate: 10}), "rate is open-loop only"},
		{"closed with ramp", window(Config{Name: "g", Keys: keys, Sessions: 1,
			Ramp: []RampStep{{At: 1, Rate: 5}}}), "ramps are open-loop only"},
		{"open no rate", window(Config{Name: "g", Mode: Open, Keys: keys}), "positive rate or a ramp"},
		{"open negative rate", window(Config{Name: "g", Mode: Open, Keys: keys, Rate: -3,
			Ramp: []RampStep{{At: 1, Rate: 5}}}), "negative arrival rate"},
		{"open with sessions", window(Config{Name: "g", Mode: Open, Keys: keys, Rate: 10, Sessions: 4}), "sessions are closed-loop only"},
		{"ramp negative rate", window(Config{Name: "g", Mode: Open, Keys: keys,
			Ramp: []RampStep{{At: 1, Rate: -5}}}), "negative rate"},
		{"ramp not ascending", window(Config{Name: "g", Mode: Open, Keys: keys, Rate: 10,
			Ramp: []RampStep{{At: 5, Rate: 1}, {At: 5, Rate: 2}}}), "strictly ascend"},
		{"shift not ascending", window(Config{Name: "g", Keys: keys, Sessions: 1, ZipfSkew: 1,
			HotspotShift: []HotspotShift{{At: 9, Shift: 1}, {At: 3, Shift: 2}}}), "strictly ascend"},
		{"shift without skew", window(Config{Name: "g", Keys: keys, Sessions: 1,
			HotspotShift: []HotspotShift{{At: 1, Shift: 1}}}), "without zipfSkew"},
		{"valid closed", window(Config{Name: "g", Keys: keys, Sessions: 8, Think: vtime.Millisecond}), ""},
		{"valid open", window(Config{Name: "g", Mode: Open, Keys: keys, Rate: 100, ZipfSkew: 1.1,
			Ramp:         []RampStep{{At: 10, Rate: 0}, {At: 20, Rate: 50}},
			HotspotShift: []HotspotShift{{At: 15, Shift: 1}}}), ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("valid config rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("invalid config accepted")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q missing %q", err, tc.wantErr)
			}
		})
	}
}

// TestOpenLoopDeterministic: the same config lays out the identical
// arrival schedule, twice.
func TestOpenLoopDeterministic(t *testing.T) {
	cfg := Config{
		Name: "g", Mode: Open, Rate: 500, Seed: 7, ZipfSkew: 1.2,
		Keys: []string{"a", "b", "c", "d"},
		End:  vtime.Time(vtime.Second),
	}
	_, first := runKV(t, cfg, 0, vtime.Time(2*vtime.Second))
	_, second := runKV(t, cfg, 0, vtime.Time(2*vtime.Second))
	if len(first) == 0 {
		t.Fatal("no arrivals")
	}
	if len(first) != len(second) {
		t.Fatalf("replay diverged: %d vs %d arrivals", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("arrival %d diverged: %+v vs %+v", i, first[i], second[i])
		}
	}
	// A different seed lays out a different schedule.
	cfg.Seed = 8
	_, other := runKV(t, cfg, 0, vtime.Time(2*vtime.Second))
	same := len(other) == len(first)
	if same {
		for i := range first {
			if first[i] != other[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds replayed the identical schedule")
	}
}

// TestOpenLoopRamp: a rate ramp changes arrival density at the step,
// and a zero-rate plateau admits no arrivals at all.
func TestOpenLoopRamp(t *testing.T) {
	half := vtime.Time(500 * vtime.Millisecond)
	cfg := Config{
		Name: "g", Mode: Open, Rate: 100, Seed: 1,
		Keys: []string{"a"},
		Ramp: []RampStep{{At: half, Rate: 1000}},
		End:  vtime.Time(vtime.Second),
	}
	_, got := runKV(t, cfg, 0, vtime.Time(2*vtime.Second))
	var before, after int
	for _, a := range got {
		if a.at < half {
			before++
		} else {
			after++
		}
	}
	// Expectations: 50 and 500 arrivals. Allow wide slack — the draw
	// is deterministic but we assert shape, not the sample path.
	if before < 20 || before > 100 {
		t.Fatalf("pre-ramp arrivals = %d, want ≈50", before)
	}
	if after < 300 || after > 800 {
		t.Fatalf("post-ramp arrivals = %d, want ≈500", after)
	}

	// Zero-rate plateau until the step: nothing before, plenty after.
	cfg.Rate = 0
	_, got = runKV(t, cfg, 0, vtime.Time(2*vtime.Second))
	for _, a := range got {
		if a.at < half {
			t.Fatalf("arrival at %v inside the zero-rate plateau", a.at)
		}
	}
	if len(got) == 0 {
		t.Fatal("no arrivals after the plateau ended")
	}
}

// TestHotspotShift: the zipf-hot key moves at the shift instant.
func TestHotspotShift(t *testing.T) {
	half := vtime.Time(500 * vtime.Millisecond)
	cfg := Config{
		Name: "g", Mode: Open, Rate: 4000, Seed: 3, ZipfSkew: 1.5,
		Keys:         []string{"a", "b", "c", "d", "e", "f", "g", "h"},
		HotspotShift: []HotspotShift{{At: half, Shift: 1}},
		End:          vtime.Time(vtime.Second),
	}
	_, got := runKV(t, cfg, 0, vtime.Time(2*vtime.Second))
	hottest := func(lo, hi vtime.Time) string {
		counts := map[string]int{}
		for _, a := range got {
			if a.at >= lo && a.at < hi {
				counts[a.key]++
			}
		}
		best, n := "", -1
		for k, c := range counts {
			if c > n || (c == n && k < best) {
				best, n = k, c
			}
		}
		return best
	}
	if h := hottest(0, half); h != "a" {
		t.Fatalf("pre-shift hot key = %q, want \"a\"", h)
	}
	if h := hottest(half, vtime.Time(vtime.Second)); h != "b" {
		t.Fatalf("post-shift hot key = %q, want \"b\" (rank rotated by 1)", h)
	}
}

// TestClosedLoop: sessions ride their ack callbacks — every offered op
// is acked, nothing submits outside the window, and the loop respects
// the think floor between an ack and the next submission.
func TestClosedLoop(t *testing.T) {
	end := vtime.Time(200 * vtime.Millisecond)
	think := 5 * vtime.Millisecond
	cfg := Config{
		Name: "g", Sessions: 8, Think: think, Seed: 11,
		Keys: []string{"a", "b", "c"},
		End:  end,
	}
	ack := vtime.Millisecond
	g, got := runKV(t, cfg, ack, vtime.Time(vtime.Second))
	if g.Stats.Offered == 0 {
		t.Fatal("closed loop offered nothing")
	}
	if g.Stats.Offered != g.Stats.Acked {
		t.Fatalf("offered %d != acked %d (fixed-latency acks must all land)", g.Stats.Offered, g.Stats.Acked)
	}
	if int(g.Stats.Offered) != len(got) {
		t.Fatalf("stats count %d != recorded %d", g.Stats.Offered, len(got))
	}
	for _, a := range got {
		if a.at >= end {
			t.Fatalf("submission at %v outside the window", a.at)
		}
	}
	// Each session's cycle is ack latency + think ≥ 1ms + 2.5ms; 8
	// sessions over 200ms can offer at most ~8·(200/3.5) ≈ 457 ops.
	if g.Stats.Offered > 500 {
		t.Fatalf("offered %d ops — think floor not respected", g.Stats.Offered)
	}
	// And determinism: the replay is identical.
	g2, got2 := runKV(t, cfg, ack, vtime.Time(vtime.Second))
	if g2.Stats != g.Stats || len(got2) != len(got) {
		t.Fatalf("closed-loop replay diverged: %+v vs %+v", g2.Stats, g.Stats)
	}
	for i := range got {
		if got[i] != got2[i] {
			t.Fatalf("submission %d diverged: %+v vs %+v", i, got[i], got2[i])
		}
	}
}

// TestMaxOpsCap: the open-loop guard truncates a runaway schedule and
// says so.
func TestMaxOpsCap(t *testing.T) {
	g, err := New(Config{
		Name: "g", Mode: Open, Rate: 100000, Seed: 1,
		Keys: []string{"a"},
		End:  vtime.Time(vtime.Second),
	})
	if err != nil {
		t.Fatal(err)
	}
	g.maxOps = 50
	got := driveKV(g, 0, vtime.Time(2*vtime.Second))
	if !g.Stats.Capped {
		t.Fatal("cap hit but not reported")
	}
	if len(got) != 50 {
		t.Fatalf("scheduled %d arrivals past a cap of 50", len(got))
	}
}

// TestTxnWorkload: transfers carry two distinct keys and ack through
// the decision callback.
func TestTxnWorkload(t *testing.T) {
	cfg := Config{
		Name: "g", Workload: Txn, Sessions: 2, Think: vtime.Millisecond, Seed: 5,
		Keys: []string{"a", "b", "c"},
		End:  vtime.Time(50 * vtime.Millisecond),
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := &sim{}
	transfers := 0
	g.Start(Sinks{
		At:  s.At,
		Now: s.Now,
		Transfer: func(from, to string, amount int64, done func()) {
			transfers++
			if from == to {
				t.Fatalf("transfer %q -> itself", from)
			}
			if done != nil {
				s.At(s.now.Add(vtime.Millisecond), done)
			}
		},
	})
	s.run(vtime.Time(vtime.Second))
	if transfers == 0 {
		t.Fatal("no transfers")
	}
	if g.Stats.Offered != g.Stats.Acked {
		t.Fatalf("offered %d != acked %d", g.Stats.Offered, g.Stats.Acked)
	}
}

// TestStartPanics: missing sinks fail loudly, not silently.
func TestStartPanics(t *testing.T) {
	mk := func(cfg Config) *Generator {
		g, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		fn()
	}
	base := Config{Name: "g", Sessions: 1, Keys: []string{"a"}, End: vtime.Time(vtime.Second)}
	expectPanic("no At", func() { mk(base).Start(Sinks{}) })
	expectPanic("no SubmitKV", func() {
		mk(base).Start(Sinks{At: func(vtime.Time, func()) {}, Now: func() vtime.Time { return 0 }})
	})
	expectPanic("closed without Now", func() {
		mk(base).Start(Sinks{At: func(vtime.Time, func()) {}, SubmitKV: func(string, int64, func()) {}})
	})
}

// TestLatencyStatsSortsInPlace: LatencyStats sorts the recorded
// latencies where they lie. Two calls in a row, and a call after more
// completions landed, each read what a sorted copy of everything
// recorded reads, with the percentile indexing reports depend on.
func TestLatencyStatsSortsInPlace(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	g := &Generator{}
	var all []vtime.Duration
	record := func(n int) {
		for range n {
			l := vtime.Duration(rng.IntN(1_000_000))
			all = append(all, l)
			g.lat = append(g.lat, l)
		}
	}
	// want is the stats of a sorted copy, indexed as q·n truncated.
	want := func() LatencyStats {
		sorted := slices.Sorted(slices.Values(all))
		n := len(sorted)
		pct := func(q float64) vtime.Duration { return sorted[min(int(q*float64(n)), n-1)] }
		var sum vtime.Duration
		for _, l := range sorted {
			sum += l
		}
		return LatencyStats{Count: n, P50: pct(0.50), P99: pct(0.99), P999: pct(0.999),
			Max: sorted[n-1], Mean: sum / vtime.Duration(n)}
	}
	if got := g.LatencyStats(); got != (LatencyStats{}) {
		t.Fatalf("no completions: %+v, want zero", got)
	}
	record(1001)
	for call := 1; call <= 2; call++ {
		if got, w := g.LatencyStats(), want(); got != w {
			t.Fatalf("call %d: %+v, want %+v", call, got, w)
		}
	}
	record(499)
	if got, w := g.LatencyStats(), want(); got != w {
		t.Fatalf("after more completions: %+v, want %+v", got, w)
	}
}
