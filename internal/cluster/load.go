package cluster

import (
	"fmt"

	"hades/internal/load"
	"hades/internal/pubsub"
	"hades/internal/shard"
	"hades/internal/txn"
)

// LoadResult is one attached load generator's account in the Result. A
// declared row: it renders the config's Mode/Workload enums as strings
// next to the generator's counters.
type LoadResult struct {
	Name     string
	Mode     string
	Workload string
	Sessions int
	Offered  int64
	Acked    int64
	// Capped reports the generator's MaxOps guard truncated the
	// schedule — the offered count understates the configured load.
	Capped bool
	// Latency is the generator's own completion-latency distribution —
	// per-generator attribution, where the trace rows aggregate by op
	// class and shard.
	Latency load.LatencyStats
}

// AttachLoad attaches a load generator to this shard set: its
// sessions multiplex round-robin over clients on the given nodes
// (reusing a client already created there, creating one otherwise —
// transaction clients for Txn workloads). The generator lays out its
// workload immediately; its account lands in Result.Loads.
func (s *ShardSet) AttachLoad(cfg load.Config, nodes []int) *load.Generator {
	gen, err := load.New(cfg)
	if err != nil {
		panic(err)
	}
	if len(nodes) == 0 {
		panic(fmt.Sprintf("cluster: load %q needs at least one client node", cfg.Name))
	}
	sinks := load.Sinks{At: s.c.At, Now: s.c.eng.Now, Metrics: s.c.metrics}
	switch cfg.Workload {
	case load.KV:
		clients := make([]*shard.Client, 0, len(nodes))
		for _, n := range nodes {
			clients = append(clients, s.kvClientFor(n))
		}
		rr := 0
		sinks.SubmitKV = func(key string, cmd int64, done func()) {
			cl := clients[rr%len(clients)]
			rr++
			cl.SubmitDone(key, cmd, done)
		}
	case load.Txn:
		clients := make([]*txn.Client, 0, len(nodes))
		for _, n := range nodes {
			clients = append(clients, s.txnClientFor(n))
		}
		rr := 0
		sinks.Transfer = func(from, to string, amount int64, done func()) {
			cl := clients[rr%len(clients)]
			rr++
			t := cl.Transfer(from, to, amount)
			if done != nil {
				t.OnDone = func(txn.Record) { done() }
			}
		}
	case load.Pub:
		// One publisher per (node, topic): the generator's Keys are
		// topic names, and the round-robin rotates the publishing node.
		pubsByTopic := make(map[string][]*pubsub.Publisher, len(cfg.Keys))
		for _, topic := range cfg.Keys {
			for _, n := range nodes {
				pub, err := s.PublisherAt(topic, n)
				if err != nil {
					panic(fmt.Sprintf("cluster: load %q: %v", cfg.Name, err))
				}
				pubsByTopic[topic] = append(pubsByTopic[topic], pub)
			}
		}
		rr := 0
		sinks.Publish = func(topic string, value int64, done func()) {
			pubs := pubsByTopic[topic]
			pub := pubs[rr%len(pubs)]
			rr++
			pub.PublishDone(value, done)
		}
	}
	gen.Start(sinks)
	s.c.loads = append(s.c.loads, gen)
	return gen
}

// kvClientFor returns this set's client on the node, creating one
// with default parameters when the node has none yet.
func (s *ShardSet) kvClientFor(node int) *shard.Client {
	for _, cl := range s.clients {
		if cl.Node() == node {
			return cl
		}
	}
	return s.ClientAt(node)
}

// txnClientFor returns this set's transaction client on the node,
// creating one with default parameters when the node has none yet.
func (s *ShardSet) txnClientFor(node int) *txn.Client {
	for _, cl := range s.txnPlane().Clients() {
		if cl.Node() == node {
			return cl
		}
	}
	return s.TxnClientAt(node)
}
