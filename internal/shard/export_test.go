package shard

import (
	"slices"

	"hades/internal/session"
	"hades/internal/vtime"
)

// LiveRequests reports how many requests the client still tracks.
func (c *Client) LiveRequests() int { return len(c.reqs) }

// TrackedBatches reports how many batches the client keeps an entry
// for, and how many calls its session engine holds live.
func (c *Client) TrackedBatches() (tracked, live int) { return len(c.batches), c.sess.Live() }

// QueuedKeys reports how many keys still have unfinished requests.
func (c *Client) QueuedKeys() int { return len(c.perKey) }

// Groups returns the shard groups of the client's router, ring order.
func (c *Client) Groups() []*Group { return c.router.groups }

// AuthoritativeNode returns the replica whose apply log Verify reads.
func (g *Group) AuthoritativeNode() (int, bool) { return g.authoritativeNode() }

// NewHistory indexes log the way Group.History indexes a group's
// authoritative log.
func NewHistory(log []Applied) *History { return newHistory(log) }

// History indexes the group's authoritative apply log, as Verify's
// Histories do.
func (g *Group) History() (*History, error) { return g.history() }

// TamperHistory replaces the group's shared history with what edit
// returns and points every replica's log at all of it, so a test can
// hand the audits a history no correct run writes.
func (g *Group) TamperHistory(edit func([]Applied) []Applied) {
	g.hist = edit(slices.Clone(g.hist))
	for i := range g.reps {
		g.reps[i].pos, g.reps[i].own = len(g.hist), nil
	}
}

// Fork is one replica's departure from its group's shared history: at
// log position At, at virtual time When.
type Fork struct {
	Group string
	Node  int
	At    int
	When  vtime.Time
}

// RecordForks collects every replica's departure from its group's
// shared history until the returned stop is called.
func RecordForks() (stop func() []Fork) {
	var forks []Fork
	testHookFork = func(g *Group, node, at int) {
		forks = append(forks, Fork{Group: g.name, Node: node, At: at, When: g.eng.Now()})
	}
	return func() []Fork {
		testHookFork = nil
		return forks
	}
}

// CountIndexes counts the history indexes made, per group name, until
// the returned stop is called.
func CountIndexes() (stop func() map[string]int) {
	n := map[string]int{}
	testHookIndex = func(g *Group) { n[g.name]++ }
	return func() map[string]int {
		testHookIndex = nil
		return n
	}
}

// AimLiveAt sends the live attempt of every in-flight batch again, at
// node instead of its group's primary: where an attempt routed on a
// stale view lands. It returns how many it sent.
func (c *Client) AimLiveAt(node int) int {
	n := 0
	c.sess.EachLive(func(o session.Owner) {
		if b := o.(*batch); c.sess.Inflight(b.call) {
			b.sendTo(node, c.sess.Attempt(b.call))
			n++
		}
	})
	return n
}
