package shard_test

import (
	"fmt"
	"strings"
	"testing"

	"hades/internal/cluster"
	"hades/internal/monitor"
	"hades/internal/shard"
	"hades/internal/vtime"
)

// TestClientRetiresRequests: the client forgets a request once it is
// acked, so what it tracks stays the live set however long the run.
func TestClientRetiresRequests(t *testing.T) {
	const ops = 10000
	c := cluster.New(cluster.Config{Seed: 5, Metrics: &cluster.MetricsParams{Disabled: true},
		Trace: &cluster.TraceParams{Disabled: true}})
	c.AddNodes(5) // 2 shards × 2 replicas + client
	set := c.ShardsWith(2, 2, cluster.ShardConfig{})
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

// TestClientRetiresBatches: the client keeps an entry for a batch only
// while the batch's session call is live, so over a long fault-free run
// (no republish ever sweeps anything) what it tracks stays the live
// set; the engine's own call list is bounded by its compaction
// (session's TestGoCompactsWithoutPoke).
func TestClientRetiresBatches(t *testing.T) {
	const ops = 600
	c := cluster.New(cluster.Config{Seed: 5, Metrics: &cluster.MetricsParams{Disabled: true},
		Trace: &cluster.TraceParams{Disabled: true}})
	c.AddNodes(5) // 2 shards × 2 replicas + client
	set := c.ShardsWith(2, 2, cluster.ShardConfig{})
	cl := set.ClientAt(4)
	every := 200 * vtime.Microsecond
	for i := 0; i < ops; i++ {
		key, cmd := fmt.Sprintf("k%d", i%64), int64(i+1)
		c.At(vtime.Time(i)*vtime.Time(every), func() { cl.Submit(key, cmd) })
	}
	horizon := vtime.Duration(ops)*every + 100*vtime.Millisecond
	for at := vtime.Time(0); at < vtime.Time(horizon); at = at.Add(5 * vtime.Millisecond) {
		c.At(at, func() {
			if tracked, live := cl.TrackedBatches(); tracked != live {
				t.Errorf("at %s: client tracks %d batches, %d calls are live", c.Now(), tracked, live)
			}
		})
	}
	c.Run(horizon)
	if n := cl.BatchStats().Batches; n < 500 {
		t.Fatalf("%d batches, want at least 500", n)
	}
	if tracked, live := cl.TrackedBatches(); tracked != 0 || live != 0 {
		t.Fatalf("client tracks %d batches, %d calls live, after every ack", tracked, live)
	}
}

// TestPerKeyFIFOAfterFailFastHead: three requests on one key, the head
// abandoned by the fail-fast policy inside a partition window. The
// other two take their turns in submission order once it is
// abandoned, both apply and ack, and no key is left queued.
func TestPerKeyFIFOAfterFailFastHead(t *testing.T) {
	const ms = vtime.Millisecond
	c := cluster.New(cluster.Config{Seed: 3, Metrics: &cluster.MetricsParams{Disabled: true},
		Trace: &cluster.TraceParams{Disabled: true}})
	c.AddNodes(4) // one shard × 3 replicas + client
	set := c.ShardsWith(1, 3, cluster.ShardConfig{})
	cl := set.ClientWith(shard.ClientParams{Node: 3, Policy: shard.FailFast})
	// The head's nine attempts (the session budget: at 1, 6, …, 41ms)
	// fall in the split and it is abandoned at 46ms; its successor's
	// first attempt is lost too, its retry lands after the heal.
	c.PartitionAt(vtime.Time(500*vtime.Microsecond), []int{0, 1, 2}, []int{3})
	c.HealAt(vtime.Time(47 * ms))
	var seqs []uint64
	c.At(vtime.Time(1*ms), func() {
		for cmd := int64(1); cmd <= 3; cmd++ {
			seqs = append(seqs, cl.Submit("k", cmd))
		}
		if cl.QueuedKeys() != 1 {
			t.Errorf("%d keys queued after three submissions on one, want 1", cl.QueuedKeys())
		}
	})
	c.Run(100 * ms)
	if cl.Stats.FailedFast != 1 || cl.Stats.Acked != 2 {
		t.Fatalf("failed fast %d, acked %d; want 1 and 2", cl.Stats.FailedFast, cl.Stats.Acked)
	}
	if len(cl.Acks) != 2 || cl.Acks[0].Seq != seqs[1] || cl.Acks[1].Seq != seqs[2] {
		t.Fatalf("acks %+v, want seqs %d then %d", cl.Acks, seqs[1], seqs[2])
	}
	if n := cl.QueuedKeys(); n != 0 {
		t.Fatalf("%d keys still queued after every request finished", n)
	}
	if live := cl.LiveRequests(); live != 0 {
		t.Fatalf("client still tracks %d requests", live)
	}
	if err := set.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestServerRedirectResendsOnce: an attempt that lands on a backup is
// refused with the primary's address, the client follows it at once,
// and the op still applies exactly once. The client counts the one
// redirect.
func TestServerRedirectResendsOnce(t *testing.T) {
	const ms = vtime.Millisecond
	c := cluster.New(cluster.Config{Seed: 9})
	c.Log().Keep(monitor.KindRedirect)
	c.AddNodes(4) // one shard × 3 replicas + client
	c.ConnectAll(100*vtime.Microsecond, 300*vtime.Microsecond)
	set := c.ShardsWith(1, 3, cluster.ShardConfig{})
	cl := set.ClientAt(3)
	c.At(vtime.Time(20*ms), func() { cl.Submit("k", 7) })
	aimed := 0
	c.At(vtime.Time(20*ms+50*vtime.Microsecond), func() {
		g := cl.Groups()[0]
		aimed = cl.AimLiveAt((g.Replication().Primary() + 1) % 3)
	})
	c.Run(100 * ms)
	if aimed != 1 {
		t.Fatalf("%d batches in flight to aim, want 1", aimed)
	}
	if cl.Stats.Acked != 1 || cl.Stats.Redirects != 1 {
		t.Fatalf("acked %d, %d redirects, want 1 and 1", cl.Stats.Acked, cl.Stats.Redirects)
	}
	var followed []string
	for _, e := range c.Log().ByKind(monitor.KindRedirect) {
		if e.Node == cl.Node() {
			followed = append(followed, e.Detail)
		}
	}
	if len(followed) != 1 || !strings.HasPrefix(followed[0], "server: ") {
		t.Fatalf("the client followed %q, want one server redirect", followed)
	}
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
}
