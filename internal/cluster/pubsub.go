package cluster

import (
	"hades/internal/pubsub"
)

// pubsubPlane returns the set's publish-subscribe data-distribution plane,
// creating it on first use (like txnPlane). The plane maps topics onto
// the set's consistent-hash ring: the shard a topic name hashes to owns
// its reliable delivery and durable history. A set that never touches
// a topic, publisher or subscriber carries no plane at all — no ports,
// hooks or metric series.
func (s *ShardSet) pubsubPlane() *pubsub.Plane {
	if s.pubsub == nil {
		p, err := pubsub.NewPlane(s.c.eng, s.c.net, pubsub.Config{
			Name:     s.name,
			ShardFor: s.router.ShardFor,
			Groups:   s.shards,
			Nodes:    append([]int(nil), s.c.nodes...),
		})
		if err != nil {
			panic(err)
		}
		s.pubsub = p
	}
	return s.pubsub
}

// Topic declares a pub/sub topic under a QoS contract on this set's
// ring (creating the plane on first use).
func (s *ShardSet) Topic(name string, qos pubsub.QoS) (*pubsub.Topic, error) {
	return s.pubsubPlane().Topic(name, qos)
}

// PublisherAt registers a publisher for a declared topic at a node.
func (s *ShardSet) PublisherAt(topic string, node int) (*pubsub.Publisher, error) {
	return s.pubsubPlane().PublisherAt(topic, node)
}

// SubscriberAt registers a subscriber for a declared topic at a node.
func (s *ShardSet) SubscriberAt(topic string, node int) (*pubsub.Subscriber, error) {
	return s.pubsubPlane().SubscriberAt(topic, node)
}

// PubSubPlane returns the plane when the run declared one and nil
// otherwise — unlike pubsubPlane it never creates the plane, so report
// paths stay behaviorally passive.
func (s *ShardSet) PubSubPlane() *pubsub.Plane { return s.pubsub }

// CheckPubSub verifies the pub/sub plane's universal invariants (no
// duplicate or fabricated deliveries, consistent ack accounting,
// bounded history rings). A set without a plane passes vacuously.
func (s *ShardSet) CheckPubSub() error {
	if s.pubsub == nil {
		return nil
	}
	return s.pubsub.Verify()
}
