package pubsub

import "hades/internal/shard"

// ID lets the external tests build a publisher's dedup tag.
func (pub *Publisher) ID() uint64 { return pub.id }

// Group returns the shard group owning a reliable topic.
func (t *Topic) Group() *shard.Group { return t.gs.g }
