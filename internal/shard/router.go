package shard

import (
	"fmt"

	"hades/internal/membership"
	"hades/internal/monitor"
	"hades/internal/simkern"
)

// Router owns the key → shard → primary resolution: a consistent-hash
// ring over the shard groups, optional pinned per-key routes, and a
// view-driven ownership table. Whenever a shard's membership installs
// a view that changes its live set, the router republishes that
// shard's ownership (the new primary per the replication layer's
// sticky promotion rule) and notifies subscribers, so clients redirect
// their in-flight requests instead of waiting out a timeout.
type Router struct {
	eng    *simkern.Engine
	ring   *Ring
	groups []*Group
	routes map[string]int
	subs   []func(*Group)
}

// NewRouter builds a router over index-aligned shard groups. routes
// pins keys to shard indices, bypassing the ring (explicit placement);
// a route to an undeclared shard is a configuration error.
func NewRouter(eng *simkern.Engine, ring *Ring, groups []*Group, routes map[string]int) (*Router, error) {
	if ring.shards != len(groups) {
		return nil, fmt.Errorf("shard: ring has %d shards but %d groups given", ring.shards, len(groups))
	}
	for key, idx := range routes {
		if idx < 0 || idx >= len(groups) {
			return nil, fmt.Errorf("shard: key %q routed to undeclared group %d (have %d)", key, idx, len(groups))
		}
	}
	r := &Router{eng: eng, ring: ring, groups: groups}
	if len(routes) > 0 {
		r.routes = make(map[string]int, len(routes))
		for k, v := range routes {
			r.routes[k] = v
		}
	}
	for i, g := range groups {
		idx := i
		g.Membership().OnChange(func(v membership.View) { r.republish(idx, v) })
	}
	return r, nil
}

// republish reacts to one installed view on one shard: ownership may
// have moved (the replication layer already performed its sticky
// promotion at this same instant), so subscribers re-resolve.
func (r *Router) republish(idx int, v membership.View) {
	g := r.groups[idx]
	r.eng.Recordf(monitor.KindRepublish, g.Replication().Primary(), g.Name(), "%s primary=n%d", v.String(), g.Replication().Primary())
	for _, fn := range r.subs {
		fn(g)
	}
}

// OnRepublish registers a handler fired whenever a shard's ownership
// is republished (clients redirect in-flight requests from it).
func (r *Router) OnRepublish(fn func(*Group)) { r.subs = append(r.subs, fn) }

// Ring returns the router's consistent-hash ring.
func (r *Router) Ring() *Ring { return r.ring }

// Groups returns the shard groups, ring-index order. The slice is the
// router's own, not a copy: callers index and range over it and must
// not modify it.
func (r *Router) Groups() []*Group { return r.groups }

// ShardFor resolves the shard index owning key: a pinned route if one
// exists, the ring otherwise.
func (r *Router) ShardFor(key string) int {
	if idx, ok := r.routes[key]; ok {
		return idx
	}
	return r.ring.Shard(key)
}
