package scenario

import (
	"testing"

	"hades/internal/metrics"
	"hades/internal/pubsub"
	"hades/internal/vtime"
)

// TestBuildHoldsDriversNotOps: a build queues one event per per-op
// driver, not one per op. An open-loop load and a fixed-interval
// publisher built at ten times the horizon leave the queue exactly as
// deep as at the horizon. The publisher's chain still submits at i·step
// for each instant strictly before the horizon, at most count times.
func TestBuildHoldsDriversNotOps(t *testing.T) {
	depth := func(horizonMs float64) int {
		spec := pubsubBase(t)
		spec.HorizonMs = horizonMs
		spec.PubSub.Publishers[0].Count = 0 // publish until the horizon
		spec.PubSub.Load[0].EndMs = 0       // the storm runs to the horizon
		c, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		return c.Engine().QueueLen()
	}
	if h, h10 := depth(1000), depth(10000); h != h10 {
		t.Fatalf("queue after build: %d events at the horizon, %d at ten times it; want equal", h, h10)
	}

	cases := []struct {
		name    string
		everyMs float64
		count   int
		want    int
	}{
		{"count caps first", 2, 300, 300},
		{"step does not divide the horizon", 3, 0, 334}, // 0, 3, …, 999
		{"instant at the horizon excluded", 250, 0, 4},  // 0, 250, 500, 750; not 1000
		{"count above the horizon's share", 250, 9, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := pubsubBase(t)
			spec.HorizonMs = 1000
			spec.PubSub.Publishers[0].SubmitEveryMs = tc.everyMs
			spec.PubSub.Publishers[0].Count = tc.count
			c, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			c.Run(spec.Horizon())
			var tele pubsub.TopicStats
			for _, st := range c.ShardSets()[0].PubSubPlane().Stats() {
				if st.Name == "telemetry" {
					tele = st
				}
			}
			if tele.Published != tc.want {
				t.Fatalf("published %d samples, want %d", tele.Published, tc.want)
			}
		})
	}
}

// TestRunHoldsOneScrapeTick: the metrics plane's scrape ticks ride a
// chain, so once a run has started the queue holds one tick, not the
// window's schedule: probed at the same instant, a run ten times as
// long holds exactly as many events.
func TestRunHoldsOneScrapeTick(t *testing.T) {
	depth := func(horizon vtime.Duration) int {
		c, err := pubsubBase(t).Build()
		if err != nil {
			t.Fatal(err)
		}
		if c.Metrics() == nil {
			t.Fatal("the metrics plane is off")
		}
		n := -1
		c.At(vtime.Time(2*vtime.Millisecond), func() { n = c.Engine().QueueLen() })
		c.Run(horizon)
		return n
	}
	if h, h10 := depth(20*vtime.Millisecond), depth(200*vtime.Millisecond); h != h10 || h < 0 {
		t.Fatalf("queue mid-run: %d events with a horizon H, %d with 10H; want equal", h, h10)
	}
}

// TestQuarterRunsScrapeAsOneRun: four Run(H/4) calls scrape as often,
// at the same instants and into the same series, as one Run(H), and
// through the first quarter the points are identical. Past it they may
// not be: each Run's window takes its place in the event order at that
// call, as an eager layout of it made there would, so a scrape that
// ties at its instant with an application event pushed in an earlier
// quarter runs after that event, where one Run's scrape runs before it.
func TestQuarterRunsScrapeAsOneRun(t *testing.T) {
	const h = 400 * vtime.Millisecond
	export := func(parts int) (int, []metrics.SeriesData) {
		c, err := pubsubBase(t).Build()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < parts; i++ {
			c.Run(h / vtime.Duration(parts))
		}
		return c.Metrics().Scrapes(), c.Metrics().Export().Series
	}
	n1, one := export(1)
	n4, four := export(4)
	if want := int(h / metrics.DefaultInterval); n1 != want || n4 != want {
		t.Fatalf("scrapes: %d in one run, %d in four quarters; want %d", n1, n4, want)
	}
	if len(one) != len(four) {
		t.Fatalf("%d series in one run, %d in four quarters", len(one), len(four))
	}
	for i, s := range one {
		q := four[i]
		if q.Name != s.Name || len(q.Points) != len(s.Points) {
			t.Fatalf("series %d: %s with %d points in one run, %s with %d in four quarters",
				i, s.Name, len(s.Points), q.Name, len(q.Points))
		}
		for j, p := range s.Points {
			if q.Points[j].T != p.T || p.T <= int64(h/4) && q.Points[j] != p {
				t.Fatalf("%s point %d: %+v in four quarters, %+v in one run", s.Name, j, q.Points[j], p)
			}
		}
	}
}
