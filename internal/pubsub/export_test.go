package pubsub

// ID lets the external tests build a publisher's dedup tag.
func (pub *Publisher) ID() uint64 { return pub.id }
