package pubsub_test

import (
	"strings"
	"testing"

	"hades/internal/cluster"
	"hades/internal/pubsub"
	"hades/internal/replication"
	"hades/internal/vtime"
)

// TestVerifyAckedImpliesApplied: a reliable publish may be acked only
// for a sample that applied through its own publish attempt. Another writer's
// entry planted under a sample's dedup tag makes the machine answer the
// publish as a retry — acked, never fanned out — and Verify names it;
// without the plant the same run passes.
func TestVerifyAckedImpliesApplied(t *testing.T) {
	run := func(plant bool) (*pubsub.Plane, *pubsub.Topic, *pubsub.Subscriber) {
		c := cluster.New(cluster.Config{Seed: 7})
		c.AddNodes(4)
		set := c.ShardsWith(1, 3, cluster.ShardConfig{})
		tp, err := set.Topic("t", pubsub.QoS{Reliability: pubsub.Reliable})
		if err != nil {
			t.Fatal(err)
		}
		pub, err := set.PublisherAt("t", 3)
		if err != nil {
			t.Fatal(err)
		}
		sub, err := set.SubscriberAt("t", 3)
		if err != nil {
			t.Fatal(err)
		}
		if plant {
			rep := tp.Group().Replication()
			c.At(0, func() {
				rep.SubmitTagged(rep.Primary(), 99, replication.Tag(replication.TagPubSub, pub.ID(), 2))
			})
		}
		c.At(vtime.Time(5*vtime.Millisecond), func() { pub.Publish(1) })
		c.At(vtime.Time(10*vtime.Millisecond), func() { pub.Publish(2) })
		c.Run(50 * vtime.Millisecond)
		return set.PubSubPlane(), tp, sub
	}

	p, tp, sub := run(false)
	if err := p.Verify(); err != nil || tp.Stats().Acked != 2 || len(sub.Deliveries()) != 2 {
		t.Fatalf("clean run: acked %d, delivered %d, Verify %v", tp.Stats().Acked, len(sub.Deliveries()), err)
	}

	p, tp, sub = run(true)
	if tp.Stats().Acked != 2 || len(sub.Deliveries()) != 1 {
		t.Fatalf("planted run: acked %d, delivered %d; want the second sample acked from the foreign entry and never delivered",
			tp.Stats().Acked, len(sub.Deliveries()))
	}
	err := p.Verify()
	if err == nil || !strings.Contains(err.Error(), "2 publishes acked but only 1 applied (1 answered from a dedup entry") {
		t.Fatalf("Verify = %v, want the acked-but-unapplied sample reported", err)
	}
}
