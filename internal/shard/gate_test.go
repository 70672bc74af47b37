package shard_test

import (
	"testing"

	"hades/internal/cluster"
	"hades/internal/shard"
	"hades/internal/vtime"
)

// TestGateOrder: the serving gate rules out down, then no-quorum, then
// not-primary — so a backup stranded on a minority side answers
// NoQuorum (it cannot know who the primary is), and a crashed one Down
// whatever its last view said — and names the group's primary with
// every verdict.
func TestGateOrder(t *testing.T) {
	const ms = vtime.Millisecond
	c := cluster.New(cluster.Config{Seed: 31})
	c.AddNodes(6)
	g := c.ShardsWith(1, 5, cluster.ShardConfig{}).Groups()[0] // replicas 0–4, primary 0
	c.Crash(4, vtime.Time(20*ms), 0)
	c.PartitionAt(vtime.Time(100*ms), []int{0, 1, 2}, []int{3})

	type row struct {
		node int
		want shard.Verdict
	}
	check := func(when string, rows ...row) {
		for _, r := range rows {
			if got, p := g.Gate(r.node); got != r.want || p != 0 {
				t.Errorf("%s: Gate(%d) = (%d, n%d), want (%d, n0)", when, r.node, got, p, r.want)
			}
		}
	}
	c.At(vtime.Time(10*ms), func() {
		check("healthy", row{0, shard.Serve}, row{1, shard.NotPrimary}, row{4, shard.NotPrimary})
	})
	c.At(vtime.Time(90*ms), func() {
		check("n4 crashed", row{0, shard.Serve}, row{3, shard.NotPrimary}, row{4, shard.Down})
	})
	c.At(vtime.Time(190*ms), func() {
		check("n3 cut off", row{0, shard.Serve}, row{1, shard.NotPrimary}, row{3, shard.NoQuorum}, row{4, shard.Down})
	})
	c.Run(200 * ms)
}
