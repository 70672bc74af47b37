package shard_test

import (
	"fmt"
	"testing"

	"hades/internal/cluster"
	"hades/internal/vtime"
)

// TestClientRetiresRequests: the client forgets a request once it is
// acked, so what it tracks stays the live set however long the run.
func TestClientRetiresRequests(t *testing.T) {
	const ops = 10000
	c := cluster.New(cluster.Config{Seed: 5, Metrics: &cluster.MetricsParams{Disabled: true},
		Trace: &cluster.TraceParams{Disabled: true}})
	c.AddNodes(5) // 2 shards × 2 replicas + client
	set := c.Shards(2, 2)
	cl := set.ClientAt(4)
	every := 200 * vtime.Microsecond
	for i := 0; i < ops; i++ {
		key, cmd := fmt.Sprintf("k%d", i%64), int64(i+1)
		c.At(vtime.Time(i)*vtime.Time(every), func() { cl.Submit(key, cmd) })
	}
	horizon := vtime.Duration(ops)*every + 100*vtime.Millisecond
	for at := vtime.Time(0); at < vtime.Time(horizon); at = at.Add(50 * vtime.Millisecond) {
		c.At(at, func() {
			if live, want := cl.LiveRequests(), cl.Stats.Submitted-cl.Stats.Acked; live != want {
				t.Errorf("at %s: client tracks %d requests, %d are unacked", c.Now(), live, want)
			}
		})
	}
	c.Run(horizon)
	if cl.Stats.Acked != ops {
		t.Fatalf("acked %d of %d", cl.Stats.Acked, ops)
	}
	if live := cl.LiveRequests(); live != 0 {
		t.Fatalf("client still tracks %d requests after every ack", live)
	}
}
