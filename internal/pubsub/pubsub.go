// Package pubsub is the HADES data-distribution plane: topic-based
// publish-subscribe with per-topic QoS in the DDS style — the workload
// class (telemetry fan-out, sensor fusion, control loops) this
// middleware family is actually deployed for.
//
// Topics are declared with a QoS contract and mapped onto the shard
// plane's consistent-hash ring; the ring picks the replication group
// that owns the topic. Reliable topics ride the owning group's
// replicated machine: a publish is submitted with a pub/sub-scoped
// dedup tag (exactly-once across publisher retries and primary
// failover), and every replica fans the applied sample out to the
// registered subscribers — a crash of the primary cannot lose a sample
// any live replica applied, and subscriber-side dedup collapses the
// redundant copies back to exactly-once delivery. Best-effort topics
// ride a raw time-bounded reliable broadcast over the whole cluster:
// the publish never blocks and drops are tolerated.
//
// Deadline QoS turns a sample whose publish→deliver latency exceeds
// the bound into a monitor DeadlineMiss violation. Durable topics keep
// the last HistoryDepth samples alongside the replicated machine (the
// ring moves with checkpoints and join state transfers via
// RegisterState), so late-joining subscribers catch up from the owning
// primary, and a partition-merge view triggers a history replay to
// every subscriber — dedup suppresses the copies a subscriber already
// saw. Subscriber liveness rides the owning group's membership views:
// a crashed subscriber's backlog is dropped (and recorded) when a view
// installs while it is down.
package pubsub

import (
	"fmt"

	"hades/internal/vtime"
)

// Reliability selects a topic's delivery contract.
type Reliability uint8

const (
	// BestEffort samples ride raw rbcast: the publish never blocks,
	// and a sample lost to a crash or partition stays lost.
	BestEffort Reliability = iota + 1
	// Reliable samples ride the owning replication group: publisher
	// retries plus the replicated dedup table give exactly-once
	// delivery to every live subscriber.
	Reliable
)

// String returns the scenario-JSON spelling of the reliability.
func (r Reliability) String() string {
	switch r {
	case BestEffort:
		return "bestEffort"
	case Reliable:
		return "reliable"
	}
	return fmt.Sprintf("Reliability(%d)", uint8(r))
}

// ParseReliability maps the scenario-JSON spelling to the enum.
func ParseReliability(s string) (Reliability, error) {
	switch s {
	case "", "reliable":
		return Reliable, nil
	case "bestEffort", "best-effort":
		return BestEffort, nil
	}
	return 0, fmt.Errorf("pubsub: unknown reliability %q (want \"reliable\" or \"bestEffort\")", s)
}

// QoS is one topic's quality-of-service contract.
type QoS struct {
	// Reliability picks the transport (zero defaults to Reliable).
	Reliability Reliability
	// Deadline bounds publish→deliver latency: a live delivery past
	// the bound raises a monitor DeadlineMiss violation. Zero disables
	// the check. History replays are exempt — a replayed sample is
	// old by construction.
	Deadline vtime.Duration
	// HistoryDepth is the durable ring's length: the last HistoryDepth
	// samples are retained for late joiners and merge replay.
	HistoryDepth int
	// Durable keeps the history ring in the owning replicated machine
	// (state transfer ships it to rejoining replicas). Requires
	// Reliable and HistoryDepth >= 1.
	Durable bool
}

// Validate checks the contract's internal consistency, loudly.
func (q QoS) Validate(topic string) error {
	switch q.Reliability {
	case BestEffort, Reliable:
	default:
		return fmt.Errorf("pubsub: topic %q has invalid reliability %d", topic, q.Reliability)
	}
	if q.Deadline < 0 {
		return fmt.Errorf("pubsub: topic %q has negative deadline %s", topic, q.Deadline)
	}
	if q.HistoryDepth < 0 {
		return fmt.Errorf("pubsub: topic %q has negative historyDepth %d", topic, q.HistoryDepth)
	}
	if q.Durable {
		if q.Reliability != Reliable {
			return fmt.Errorf("pubsub: durable topic %q needs reliable delivery (best-effort samples cannot back a history)", topic)
		}
		if q.HistoryDepth < 1 {
			return fmt.Errorf("pubsub: durable topic %q needs historyDepth >= 1 (zero retains nothing for late joiners)", topic)
		}
	} else if q.HistoryDepth > 0 {
		return fmt.Errorf("pubsub: topic %q sets historyDepth %d without durable (history is only retained on durable topics)", topic, q.HistoryDepth)
	}
	return nil
}

// Sample is one published datum.
type Sample struct {
	Topic string
	// Pub is the plane-wide publisher id, Seq its 1-based sequence:
	// together the sample's identity for dedup and verification.
	Pub uint64
	Seq uint64
	// Value is the payload.
	Value int64
	// PublishedAt is the publish instant (deadline QoS measures
	// delivery latency against it).
	PublishedAt vtime.Time
}

// key is the sample's dedup identity.
func (s Sample) key() sampleKey { return sampleKey{s.Pub, s.Seq} }

type sampleKey struct {
	Pub, Seq uint64
}

// Delivery is one sample's arrival at one subscriber.
type Delivery struct {
	Sample
	// Latency is the publish→deliver time.
	Latency vtime.Duration
	// Replay marks a history replay (late-joiner catch-up or a
	// partition-merge replay) rather than a live fan-out delivery.
	Replay bool
}

// TopicStats is one topic's delivery account.
type TopicStats struct {
	Name  string
	Shard int
	QoS   QoS
	// Publishers/Subscribers count the registered endpoints.
	Publishers  int
	Subscribers int
	// Published counts publish calls; Acked the publishes whose
	// replication round completed (best-effort: whose broadcast round
	// delivered back at the origin).
	Published int
	Acked     int
	// Delivered counts recorded subscriber deliveries, Suppressed the
	// redundant fan-out copies dedup collapsed, Replayed the
	// deliveries served from durable history.
	Delivered  int
	Suppressed int
	Replayed   int
	// Dropped counts backlogged samples discarded at a view install
	// while their subscriber was down.
	Dropped int
	// DeadlineMiss counts live deliveries past the QoS bound.
	DeadlineMiss int
	// HistoryLen is the durable ring's length at the owning primary
	// when stats were taken.
	HistoryLen int
}

// String renders one stats row.
func (t TopicStats) String() string {
	return fmt.Sprintf("%s (s%d, %s): pubs=%d subs=%d published=%d acked=%d delivered=%d suppressed=%d replayed=%d dropped=%d deadline-miss=%d",
		t.Name, t.Shard, t.QoS.Reliability, t.Publishers, t.Subscribers,
		t.Published, t.Acked, t.Delivered, t.Suppressed, t.Replayed, t.Dropped, t.DeadlineMiss)
}
