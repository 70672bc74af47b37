package load

import (
	"math/rand"
	"slices"
	"testing"

	"hades/internal/vtime"
)

// layoutReference is the eager open-loop layout the chain replaced,
// kept as the oracle: every gap drawn and every arrival laid out up
// front, then one key per arrival, in arrival order, from the same
// source after the last gap.
func layoutReference(g *Generator) (want []arrival, capped bool) {
	rng := rand.New(rand.NewSource(g.sessionSeed(-1)))
	pick := g.keyPicker(rng)
	var instants []vtime.Time
	t := vtime.Time(0)
	for {
		r := g.rateAt(t)
		if r <= 0 {
			next, ok := g.nextRampAfter(t)
			if !ok {
				break
			}
			t = next
			continue
		}
		gap := vtime.Duration(rng.ExpFloat64() / r * float64(vtime.Second))
		if gap < 1 {
			gap = 1
		}
		t = t.Add(gap)
		if t >= g.cfg.End {
			break
		}
		if len(instants) >= g.maxOps {
			capped = true
			break
		}
		instants = append(instants, t)
	}
	for _, at := range instants {
		want = append(want, arrival{at: at, key: pick(at)})
	}
	return want, capped
}

// TestOpenLoopChainMatchesLayout: the chained arrivals submit the
// eager layout's (instant, key) sequence exactly and report the same
// Capped, while Start schedules only the first arrival.
func TestOpenLoopChainMatchesLayout(t *testing.T) {
	ms := func(n int) vtime.Time { return vtime.Time(vtime.Duration(n) * vtime.Millisecond) }
	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	cases := []struct {
		name   string
		cfg    Config
		maxOps int // the generator's cap when lowered, else 0
	}{
		{"plain rate", Config{Rate: 2000, ZipfSkew: 0.9}, 0},
		{"ramp with a zero-rate plateau", Config{Rate: 300, ZipfSkew: 1.1, Ramp: []RampStep{
			{At: ms(200), Rate: 0}, {At: ms(400), Rate: 1000}, {At: ms(550), Rate: 0}, {At: ms(700), Rate: 200}}}, 0},
		{"hotspot shift", Config{Rate: 4000, ZipfSkew: 1.5, HotspotShift: []HotspotShift{
			{At: ms(300), Shift: 1}, {At: ms(600), Shift: 5}}}, 0},
		{"truncating maxOps", Config{Rate: 100000}, 50},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Name, cfg.Mode, cfg.Seed, cfg.Keys, cfg.End = "g", Open, 9, keys, ms(1000)
			ref, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tc.maxOps > 0 {
				ref.maxOps = tc.maxOps
			}
			want, capped := layoutReference(ref)
			if len(want) == 0 {
				t.Fatal("the reference laid out no arrivals")
			}
			if capped != (tc.maxOps > 0) {
				t.Fatalf("reference capped=%v, want a truncating cap only where maxOps is lowered", capped)
			}

			g, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tc.maxOps > 0 {
				g.maxOps = tc.maxOps
			}
			s := &sim{}
			var got []arrival
			calls := 0
			g.Start(Sinks{
				At: func(at vtime.Time, fn func()) {
					calls++
					s.At(at, fn)
				},
				Now: s.Now,
				SubmitKV: func(key string, _ int64, done func()) {
					got = append(got, arrival{at: s.now, key: key})
					s.At(s.now.Add(vtime.Millisecond), done)
				},
			})
			if calls != 1 {
				t.Fatalf("Start made %d At calls, want 1 (the first arrival)", calls)
			}
			if g.Stats.Capped != capped {
				t.Fatalf("Capped=%v after Start, want %v", g.Stats.Capped, capped)
			}
			s.run(ms(2000))
			if !slices.Equal(got, want) {
				t.Fatalf("chain submitted %d arrivals, the layout %d; first difference at %d",
					len(got), len(want), firstDiff(got, want))
			}
			if calls != len(want) || g.Stats.Capped != capped {
				t.Fatalf("%d At calls and Capped=%v after the run, want %d and %v", calls, g.Stats.Capped, len(want), capped)
			}
		})
	}
}

// firstDiff is the first index where a and b differ.
func firstDiff(a, b []arrival) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
