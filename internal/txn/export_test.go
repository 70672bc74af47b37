package txn

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
