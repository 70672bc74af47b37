package scenario

import (
	"fmt"

	"hades/internal/cluster"
	"hades/internal/pubsub"
	"hades/internal/vtime"
)

// PubSubSpec declares the QoS-aware publish-subscribe plane over the
// scenario's sharded data plane (it requires a shards block: topics
// map onto the same consistent-hash ring, reliable topics ride the
// owning shard's replicated machine). Topics declare QoS contracts;
// publishers and subscribers pin endpoints to nodes; Load attaches
// open/closed-loop generators whose sessions publish to the declared
// topics instead of submitting kv commands.
type PubSubSpec struct {
	Topics      []TopicSpec      `json:"topics"`
	Publishers  []PublisherSpec  `json:"publishers,omitempty"`
	Subscribers []SubscriberSpec `json:"subscribers,omitempty"`
	// Load drives topics with the load plane: Keys lists the target
	// topics (declaration order = zipf rank), workload is implicitly
	// "pubsub", and nodes may be anywhere — publishers co-locate with
	// replicas legally.
	Load []LoadSpec `json:"load,omitempty"`
}

// TopicSpec declares one topic and its QoS contract.
type TopicSpec struct {
	Name string `json:"name"`
	// Reliability is "reliable" (the default: exactly-once through the
	// owning shard's replicated machine) or "bestEffort" (raw reliable
	// broadcast: never blocks on the data plane, may drop under churn).
	Reliability string `json:"reliability,omitempty"`
	// DeadlineMs bounds publish→deliver latency: a live delivery past
	// the bound raises a DeadlineMiss monitor violation (0 = no bound).
	DeadlineMs float64 `json:"deadlineMs,omitempty"`
	// HistoryDepth is the durable ring length (requires durable).
	HistoryDepth int `json:"historyDepth,omitempty"`
	// Durable retains the last HistoryDepth samples inside the owning
	// replicated machine — late joiners catch up from it, and it rides
	// state transfer through crash recovery and partition merge.
	// Requires reliable with historyDepth >= 1.
	Durable bool `json:"durable,omitempty"`
}

// qos lowers the topic spec to the pubsub QoS contract, loudly.
func (t TopicSpec) qos() (pubsub.QoS, error) {
	rel, err := pubsub.ParseReliability(t.Reliability)
	if err != nil {
		return pubsub.QoS{}, fmt.Errorf("topic %q: %v", t.Name, err)
	}
	q := pubsub.QoS{
		Reliability:  rel,
		Deadline:     msd(t.DeadlineMs),
		HistoryDepth: t.HistoryDepth,
		Durable:      t.Durable,
	}
	return q, q.Validate(t.Name)
}

// PublisherSpec places one publisher: one sample every SubmitEveryMs
// from the run start, Count samples in total (0 = the whole horizon).
type PublisherSpec struct {
	Topic         string  `json:"topic"`
	Node          int     `json:"node"`
	SubmitEveryMs float64 `json:"submitEveryMs"`
	Count         int     `json:"count,omitempty"`
}

// SubscriberSpec places one subscriber; JoinAtMs > 0 makes it a late
// joiner that activates mid-run and catches up from the durable
// history of its topic's owning shard.
type SubscriberSpec struct {
	Topic    string  `json:"topic"`
	Node     int     `json:"node"`
	JoinAtMs float64 `json:"joinAtMs,omitempty"`
}

// validatePubSub rejects malformed pubsub blocks loudly: QoS contract
// violations (delegated to pubsub.QoS.Validate), endpoints on
// undeclared topics or unknown nodes, non-positive publish intervals,
// late joins outside the horizon, and load generators targeting
// undeclared topics. loadNames carries every generator name declared
// elsewhere in the spec so cross-block duplicates fail here.
func (s Spec) validatePubSub(loadNames map[string]bool) error {
	ps := s.PubSub
	if ps == nil {
		return nil
	}
	if s.Shards == nil {
		return fmt.Errorf("scenario %q: pubsub block requires a shards block (topics map onto the shard ring)", s.Name)
	}
	if len(ps.Topics) == 0 {
		return fmt.Errorf("scenario %q: pubsub block declares no topics", s.Name)
	}
	topics := map[string]bool{}
	for i, t := range ps.Topics {
		if t.Name == "" {
			return fmt.Errorf("scenario %q: pubsub topic %d unnamed", s.Name, i)
		}
		if topics[t.Name] {
			return fmt.Errorf("scenario %q: duplicate pubsub topic %q", s.Name, t.Name)
		}
		topics[t.Name] = true
		if _, err := t.qos(); err != nil {
			return fmt.Errorf("scenario %q: %v", s.Name, err)
		}
	}
	for i, pb := range ps.Publishers {
		if !topics[pb.Topic] {
			return fmt.Errorf("scenario %q: pubsub publisher %d on undeclared topic %q", s.Name, i, pb.Topic)
		}
		if err := s.knownNode(pb.Node, "pubsub publisher %d on", i); err != nil {
			return err
		}
		if pb.Count < 0 {
			return fmt.Errorf("scenario %q: pubsub publisher %d has negative count %d", s.Name, i, pb.Count)
		}
		if err := s.fixedDriver(pb.SubmitEveryMs, pb.Count, "pubsub publisher %d", i); err != nil {
			return err
		}
	}
	subsAt := map[string]bool{}
	for i, sb := range ps.Subscribers {
		if !topics[sb.Topic] {
			return fmt.Errorf("scenario %q: pubsub subscriber %d on undeclared topic %q", s.Name, i, sb.Topic)
		}
		if err := s.knownNode(sb.Node, "pubsub subscriber %d on", i); err != nil {
			return err
		}
		key := fmt.Sprintf("%s@%d", sb.Topic, sb.Node)
		if subsAt[key] {
			return fmt.Errorf("scenario %q: two pubsub subscribers for topic %q on node %d", s.Name, sb.Topic, sb.Node)
		}
		subsAt[key] = true
		if sb.JoinAtMs < 0 {
			return fmt.Errorf("scenario %q: pubsub subscriber %d joins at negative instant %gms", s.Name, i, sb.JoinAtMs)
		}
		if sb.JoinAtMs >= s.HorizonMs {
			return fmt.Errorf("scenario %q: pubsub subscriber %d joins at %gms, past the %gms horizon", s.Name, i, sb.JoinAtMs, s.HorizonMs)
		}
	}
	block := pubsubLoads
	block.topics = topics
	return s.validateLoads(block, ps.Load, loadNames)
}

// attachPubSub lowers the pubsub block onto the already-built shard
// set: declare topics, register endpoints, lay out the publishers'
// fixed submission schedules and attach the pubsub load generators.
// The spec is already validated; residual errors (all reachable only
// through spec skew) surface loudly.
func (s Spec) attachPubSub(c *cluster.Cluster, set *cluster.ShardSet) error {
	ps := s.PubSub
	if ps == nil {
		return nil
	}
	for _, ts := range ps.Topics {
		q, err := ts.qos()
		if err != nil {
			return fmt.Errorf("scenario %q: %v", s.Name, err)
		}
		if _, err := set.Topic(ts.Name, q); err != nil {
			return fmt.Errorf("scenario %q: %v", s.Name, err)
		}
	}
	for _, pb := range ps.Publishers {
		pub, err := set.PublisherAt(pb.Topic, pb.Node)
		if err != nil {
			return fmt.Errorf("scenario %q: %v", s.Name, err)
		}
		s.every(c, pb.SubmitEveryMs, pb.Count, func(i int) { pub.Publish(int64(i + 1)) })
	}
	for _, sb := range ps.Subscribers {
		sub, err := set.SubscriberAt(sb.Topic, sb.Node)
		if err != nil {
			return fmt.Errorf("scenario %q: %v", s.Name, err)
		}
		if at := msd(sb.JoinAtMs); at > 0 {
			if err := sub.SetJoinAt(vtime.Time(at)); err != nil {
				return fmt.Errorf("scenario %q: %v", s.Name, err)
			}
		}
	}
	// The block's generators take their seeds on from the shards block's.
	base := len(s.Shards.Load)
	s.attachLoads(pubsubLoads, ps.Load, func(i int) int64 { return loadSeed(s.Seed, base+i) }, set.AttachLoad)
	return nil
}
