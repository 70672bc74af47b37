package shard

import (
	"fmt"

	"hades/internal/replication"
)

// Verify checks the sharded data plane's safety contract after a run,
// against the authoritative apply logs of the shard groups:
//
//   - exactly-once: every acknowledged request appears in the owning
//     group's authoritative history exactly once, with the result the
//     client was given;
//   - per-key order: within the authoritative history, each client's
//     requests on each key apply in submission (sequence) order —
//     with single-writer keys this is per-key linearizability, since
//     acks only ever come from the quorum-holding primary lineage.
//
// The authoritative history is a hole-free replica's log — one never
// down and never view-excluded (semi-active followers execute
// everything, so any replica that stayed in every view holds the full
// lineage). Verify requires semi-active shards: under passive
// replication acknowledged work since the last checkpoint is lost on
// failover by design, so the exactly-once clause cannot hold.
func Verify(r *Router, clients []*Client) error {
	for _, g := range r.Groups() {
		if s := g.Replication().Style(); s != replication.SemiActive {
			return fmt.Errorf("shard: verify needs semi-active shards (group %q is %s)", g.Name(), s)
		}
	}
	hist := make([]*History, len(r.Groups()))
	for i, g := range r.Groups() {
		h, err := g.History()
		if err != nil {
			return fmt.Errorf("shard: %w", err)
		}
		hist[i] = h
		lastSeq := make(map[string]map[int]uint64) // key → client → last seq
		for _, a := range h.Log {
			perKey := lastSeq[a.Key]
			if perKey == nil {
				perKey = make(map[int]uint64)
				lastSeq[a.Key] = perKey
			}
			if last := perKey[a.Client]; a.Seq <= last {
				return fmt.Errorf("shard: group %q key %q: client n%d seq %d applied after seq %d (per-key order violated)",
					g.Name(), a.Key, a.Client, a.Seq, last)
			}
			perKey[a.Client] = a.Seq
		}
	}
	for _, c := range clients {
		for _, ack := range c.Acks {
			idx := r.ShardFor(ack.Key)
			a, n := hist[idx].Find(c.Node(), ack.Seq)
			switch {
			case n == 0:
				return fmt.Errorf("shard: acked request n%d#%d (key %q) missing from group %q history (acknowledged write lost)",
					c.Node(), ack.Seq, ack.Key, r.Groups()[idx].Name())
			case n > 1:
				return fmt.Errorf("shard: acked request n%d#%d (key %q) applied %d times in group %q (exactly-once violated)",
					c.Node(), ack.Seq, ack.Key, n, r.Groups()[idx].Name())
			}
			if a.Result != ack.Result || a.Key != ack.Key {
				return fmt.Errorf("shard: acked request n%d#%d: client saw (key %q, result %d), history holds (key %q, result %d)",
					c.Node(), ack.Seq, ack.Key, ack.Result, a.Key, a.Result)
			}
		}
	}
	return nil
}

// History is one group's authoritative history — the apply log of a
// hole-free replica — indexed by request. Both run audits (Verify here
// and txn.Verify) read it, so they judge one set of histories.
type History struct {
	// Log is the authoritative apply log, in apply order. It is the
	// group's own slice: read it, do not keep or change it.
	Log   []Applied
	byReq map[reqKey]reqApplies
}

// reqKey names one client request; reqApplies is how often it was
// applied and the last such apply.
type reqKey struct {
	client int
	seq    uint64
}

type reqApplies struct {
	last Applied
	n    int
}

// History indexes the group's authoritative apply log. It fails when
// no replica's log is hole-free.
func (g *Group) History() (*History, error) {
	node, ok := g.AuthoritativeNode()
	if !ok {
		return nil, fmt.Errorf("group %q has no hole-free replica to verify against", g.Name())
	}
	h := &History{Log: g.logs[node], byReq: make(map[reqKey]reqApplies, len(g.logs[node]))}
	for _, a := range h.Log {
		k := reqKey{client: a.Client, seq: a.Seq}
		h.byReq[k] = reqApplies{last: a, n: h.byReq[k].n + 1}
	}
	return h, nil
}

// Find returns how many times the history applied request (client,
// seq), and the last such apply.
func (h *History) Find(client int, seq uint64) (Applied, int) {
	r := h.byReq[reqKey{client: client, seq: seq}]
	return r.last, r.n
}
