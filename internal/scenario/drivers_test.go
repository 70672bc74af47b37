package scenario

import (
	"testing"

	"hades/internal/pubsub"
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
