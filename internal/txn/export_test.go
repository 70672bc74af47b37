package txn

// LiveCalls hands the external tests the count of unretired session
// calls on the client's plane: its own submissions and every
// coordinator and participant protocol loop.
func (c *Client) LiveCalls() int { return c.p.sess.Live() }
