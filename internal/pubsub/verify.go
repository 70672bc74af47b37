package pubsub

import (
	"fmt"
	"maps"
	"slices"
	"strings"
)

// Verify audits the plane's universal invariants — the properties that
// hold under every fault schedule:
//
//   - no subscriber ever recorded the same sample twice (dedup held);
//   - every delivered sample was actually published (no fabrication);
//   - every ack corresponds to a published sample;
//   - every ack of a reliable sample has an apply behind it: the sample
//     applied on the owning group through its own publish attempt (acked ≤
//     applied), and no ack was answered from a dedup entry the plane
//     never wrote — the tag of another writer sharing the machine;
//   - durable history rings never exceed their declared depth.
//
// Completeness (every published sample reaching every subscriber) is
// deliberately not universal — a partition can legitimately cost a
// best-effort subscriber samples, and a reliable subscriber outside
// the history window. CheckComplete asserts the strict contract for
// scenarios whose fault schedule permits it.
func (p *Plane) Verify() error {
	var errs []string
	for _, t := range p.order {
		pubBy := make(map[uint64]map[uint64]bool) // pub → published seqs
		for _, pub := range t.pubs {
			set := make(map[uint64]bool, len(pub.published))
			for _, s := range pub.published {
				set[s.Seq] = true
			}
			pubBy[pub.id] = set
		}
		for _, sub := range t.subs {
			seen := make(map[sampleKey]bool, len(sub.deliveries))
			for _, d := range sub.deliveries {
				k := d.key()
				if seen[k] {
					errs = append(errs, fmt.Sprintf("topic %q: subscriber %d delivered p%d#%d twice",
						t.name, sub.id, d.Pub, d.Seq))
					continue
				}
				seen[k] = true
				if set := pubBy[d.Pub]; set == nil || !set[d.Seq] {
					errs = append(errs, fmt.Sprintf("topic %q: subscriber %d delivered unpublished sample p%d#%d",
						t.name, sub.id, d.Pub, d.Seq))
				}
			}
		}
		acked := 0
		for _, pub := range t.pubs {
			acked += pub.acked
			if pub.acked > len(pub.published) {
				errs = append(errs, fmt.Sprintf("topic %q: publisher %d acked %d of %d published",
					t.name, pub.id, pub.acked, len(pub.published)))
			}
		}
		if acked != t.acked {
			errs = append(errs, fmt.Sprintf("topic %q: acked account mismatch (%d per-publisher vs %d topic)",
				t.name, acked, t.acked))
		}
		if t.gs != nil && (t.acked > t.applied || t.ackedUnapplied > 0) {
			errs = append(errs, fmt.Sprintf("topic %q: %d publishes acked but only %d applied (%d answered from a dedup entry this plane never wrote)",
				t.name, t.acked, t.applied, t.ackedUnapplied))
		}
		if t.gs != nil && t.qos.Durable {
			for _, node := range t.gs.g.Nodes() {
				if h := t.gs.hist[node][t.name]; len(h) > t.qos.HistoryDepth {
					errs = append(errs, fmt.Sprintf("topic %q: history at n%d holds %d > depth %d",
						t.name, node, len(h), t.qos.HistoryDepth))
				}
			}
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("pubsub: %d invariant violation(s):\n  %s", len(errs), strings.Join(errs, "\n  "))
	}
	return nil
}

// CheckComplete asserts one reliable topic's strict delivery contract
// — valid when no fault window could legitimately strand a subscriber
// (crash-and-recover schedules qualify; partitions that segment a
// subscriber do not):
//
//   - every publish was acked (the retry loop converged);
//   - every from-start subscriber received every published sample
//     exactly once;
//   - every late joiner received at least the owning primary's final
//     history ring (it converged to the last HistoryDepth samples).
func (p *Plane) CheckComplete(topic string) error {
	t := p.topics[topic]
	if t == nil {
		return fmt.Errorf("pubsub: CheckComplete on undeclared topic %q (declared: %s)",
			topic, strings.Join(slices.Sorted(maps.Keys(p.topics)), ", "))
	}
	if t.qos.Reliability != Reliable {
		return fmt.Errorf("pubsub: CheckComplete on best-effort topic %q (no completeness contract)", topic)
	}
	var errs []string
	for _, pub := range t.pubs {
		if n := len(pub.published) - pub.acked; n > 0 {
			errs = append(errs, fmt.Sprintf("publisher %d has %d unacked publishes", pub.id, n))
		}
	}
	for _, sub := range t.subs {
		if sub.joinAt > 0 {
			// A late joiner converges to the history window, not the
			// full stream.
			prim := t.gs.g.Replication().Primary()
			for _, s := range t.gs.hist[prim][t.name] {
				if !sub.seen[s.key()] {
					errs = append(errs, fmt.Sprintf("late joiner %d missing history sample p%d#%d", sub.id, s.Pub, s.Seq))
				}
			}
			continue
		}
		for _, pub := range t.pubs {
			for _, s := range pub.published {
				if !sub.seen[s.key()] {
					errs = append(errs, fmt.Sprintf("subscriber %d missing sample p%d#%d", sub.id, s.Pub, s.Seq))
				}
			}
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("pubsub: topic %q incomplete: %d violation(s):\n  %s",
			topic, len(errs), strings.Join(errs, "\n  "))
	}
	return nil
}
