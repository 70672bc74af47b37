package shard

// LiveRequests reports how many requests the client still tracks.
func (c *Client) LiveRequests() int { return len(c.reqs) }
