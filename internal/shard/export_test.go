package shard

// LiveRequests reports how many requests the client still tracks.
func (c *Client) LiveRequests() int { return len(c.reqs) }

// QueuedKeys reports how many keys still have unfinished requests.
func (c *Client) QueuedKeys() int { return len(c.perKey) }

// Group returns the shard group at ring index i of the client's router.
func (c *Client) Group(i int) *Group { return c.router.groups[i] }
