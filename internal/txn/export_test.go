package txn

import (
	"hades/internal/shard"
	"hades/internal/vtime"
)

// LiveCalls hands the external tests the count of unretired session
// calls on the client's plane: its own submissions and every
// coordinator and participant protocol loop.
func (c *Client) LiveCalls() int { return c.p.sess.Live() }

// AimLiveAt sends the in-flight submission's live attempt again, at node
// instead of its coordinator group's primary: where an attempt routed
// on a stale view lands. It reports whether one was in flight.
func (c *Client) AimLiveAt(node int) bool {
	t := c.inflight
	if t == nil || !c.p.sess.Inflight(t.call) {
		return false
	}
	submission{t}.sendTo(node, c.p.sess.Attempt(t.call))
	return true
}

// Plane returns the plane the client submits to.
func (c *Client) Plane() *Plane { return c.p }

// Floors returns the transaction and write floors the client's next
// attempt carries.
func (c *Client) Floors() (txnFloor, writeFloor uint64) { return c.floors() }

// Groups returns the plane's shard groups, ring order.
func (p *Plane) Groups() []*shard.Group { return p.router.Groups() }

// CoordShard returns the index of the shard coordinating id.
func (p *Plane) CoordShard(id ID) int { return p.coordShard(id) }

// Mirror returns node's decision mirror.
func (c *Coordinator) Mirror(node int) map[ID]bool { return c.decided[node] }

// LateCopy is a protocol message a test sends from the client's node,
// as a late copy of one would arrive: a submission ("begin") at the
// primary of the group coordinating transaction Num, or a "prepare"
// (one write of Key) or a decision ("commit", "abort") at the primary
// of Shard. Deadline is the transaction's.
type LateCopy struct {
	Kind     string
	Num      uint64
	Shard    int
	Key      string
	Deadline vtime.Time
}

// SendLate sends l.
func (c *Client) SendLate(l LateCopy) {
	p, id := c.p, ID{Client: c.c.Node, Num: l.Num}
	var port string
	var payload any
	switch l.Kind {
	case "begin":
		l.Shard = p.coordShard(id)
		port, payload = p.coordPort, beginEnv{ID: id, Deadline: l.Deadline, Client: c.c.Node, Attempt: 7}
	case "prepare":
		ops := []Op{{Kind: OpWrite, Key: l.Key, Cmd: 1, Shard: l.Shard}}
		port, payload = p.partPort, prepareEnv{ID: id, Ops: ops, Deadline: l.Deadline, Coord: p.coordShard(id)}
	case "commit", "abort":
		port, payload = p.partPort, decisionEnv{ID: id, Commit: l.Kind == "commit"}
	default:
		panic("txn: late copy of a " + l.Kind)
	}
	to := p.router.Groups()[l.Shard].Replication().Primary()
	if _, err := p.net.Send(c.c.Node, to, port, payload, 32); err != nil {
		panic(err)
	}
}

// Answer names a protocol message the plane sends a sender: "outcome"
// (with its echoed attempt) or "refusal" from a coordinator, "yes",
// "no" or "ack" from a participant; "" for anything else.
func Answer(payload any) (kind string, id ID, attempt int) {
	switch e := payload.(type) {
	case outcomeEnv:
		if e.Kind == respOutcome {
			return "outcome", e.ID, e.Attempt
		}
		return "refusal", e.ID, e.Attempt
	case voteEnv:
		if e.Yes {
			return "yes", e.ID, 0
		}
		return "no", e.ID, 0
	case ackEnv:
		return "ack", e.ID, 0
	}
	return "", ID{}, 0
}
