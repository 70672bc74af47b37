package scenario

import (
	"fmt"

	"hades/internal/cluster"
	"hades/internal/membership"
	"hades/internal/replication"
)

// GroupSpec declares one view-synchronous membership group, optionally
// carrying a replicated state machine driven with periodic requests:
//
//   - Nodes is the member universe watched by the group's detector;
//   - Style ("passive", "semi-active", "active"), when set, attaches a
//     replica group over every member (promotion order = declaration
//     order) whose failover follows the installed views; the replicas'
//     execution and stable-storage costs are the cluster's constants;
//   - SubmitEveryMs, when positive, submits one request every interval
//     from node SubmitFrom for the whole horizon.
type GroupSpec struct {
	Name            string  `json:"name"`
	Nodes           []int   `json:"nodes"`
	Style           string  `json:"style,omitempty"`
	CheckpointEvery int     `json:"checkpointEvery,omitempty"`
	SubmitEveryMs   float64 `json:"submitEveryMs,omitempty"`
	SubmitFrom      int     `json:"submitFrom,omitempty"`
}

// groupStyles is the group replication-style enum's single source (see
// named). It has no default: a group without a style replicates
// nothing.
var groupStyles = map[string]replication.Style{
	"passive": replication.Passive, "semi-active": replication.SemiActive, "active": replication.Active}

// validateGroups rejects malformed membership groups — names that
// collide (with each other or with the shard set's own groups, whose
// membership ports they would share), members off the platform, a
// driver with nothing replicated to drive.
func (s Spec) validateGroups() error {
	names, minted := map[string]bool{}, map[string]bool{}
	if s.Shards != nil {
		for i := 0; i < s.Shards.Count; i++ {
			minted[cluster.ShardGroupName(shardSet, i)] = true
		}
	}
	for _, g := range s.Groups {
		if g.Name == "" {
			return fmt.Errorf("scenario %q: unnamed group", s.Name)
		}
		if names[g.Name] {
			return fmt.Errorf("scenario %q: duplicate group %q", s.Name, g.Name)
		}
		if minted[g.Name] {
			return fmt.Errorf("scenario %q: group %q takes the name of one of the shards block's own groups (%s…) and would share its membership ports; rename it",
				s.Name, g.Name, cluster.ShardGroupName(shardSet, 0))
		}
		names[g.Name] = true
		if err := s.networked("group %q needs", g.Name); err != nil {
			return err
		}
		if len(g.Nodes) < 2 {
			return fmt.Errorf("scenario %q: group %q needs at least 2 nodes", s.Name, g.Name)
		}
		if len(g.Nodes) > membership.MaxMembers {
			return fmt.Errorf("scenario %q: group %q has %d nodes, at most %d", s.Name, g.Name, len(g.Nodes), membership.MaxMembers)
		}
		members := map[int]bool{}
		for _, n := range g.Nodes {
			if err := s.knownNode(n, "group %q member", g.Name); err != nil {
				return err
			}
			if members[n] {
				return fmt.Errorf("scenario %q: group %q lists member %d twice", s.Name, g.Name, n)
			}
			members[n] = true
		}
		if g.Style != "" {
			if _, err := named(s, groupStyles, g.Style, "group %q has unknown style", g.Name); err != nil {
				return err
			}
		} else if g.SubmitEveryMs > 0 {
			return fmt.Errorf("scenario %q: group %q submits requests but has no replication style (nothing to drive)", s.Name, g.Name)
		}
		if err := s.knownNode(g.SubmitFrom, "group %q submits from", g.Name); err != nil {
			return err
		}
		if g.SubmitEveryMs > 0 {
			if err := s.fixedDriver(g.SubmitEveryMs, 0, "group %q", g.Name); err != nil {
				return err
			}
		}
	}
	return nil
}

// attachGroups lowers the membership groups, declaration order: the
// group, its replicated machine when it has a style, then the
// fixed-interval request driver. It returns the replicated machines.
func (s Spec) attachGroups(c *cluster.Cluster) (reps []*replication.Group) {
	for _, gs := range s.Groups {
		g := c.Group(gs.Name, gs.Nodes...)
		if gs.Style == "" {
			continue
		}
		rep := g.Replicate(replication.Config{
			Style:           groupStyles[gs.Style],
			CheckpointEvery: gs.CheckpointEvery,
		}, nil)
		reps = append(reps, rep)
		if gs.SubmitEveryMs > 0 {
			from := gs.SubmitFrom
			s.every(c, gs.SubmitEveryMs, 0, func(i int) { rep.Submit(from, int64(i+1)) })
		}
	}
	return reps
}
