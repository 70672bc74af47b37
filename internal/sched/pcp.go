package sched

import (
	"hades/internal/dispatcher"
	"hades/internal/heug"
)

// PCP implements a priority-ceiling protocol in the style of Chen and
// Lin's dynamic priority ceilings [CL90] (the paper's footnote 2),
// adapted to the HEUG model's all-at-start resource acquisition:
//
//   - each resource has a static ceiling: the highest base priority of
//     any unit that uses it;
//   - a job may acquire its resources only if its priority strictly
//     exceeds the ceilings of all resources currently held by *other*
//     jobs on its node (the PCP grant rule);
//   - while a job blocks, the holders responsible inherit its priority
//     through the dispatcher primitive, and revert on release.
//
// Compared to SRP, PCP achieves the same one-critical-section blocking
// bound but pays for it in priority-change traffic and extra context
// switches — experiment E-X2 measures exactly that difference.
type PCP struct {
	prim     dispatcher.Primitive
	ceilings map[srpKey]int
	heldBy   map[*dispatcher.Thread][]string // holder → resources held
	baseline map[*dispatcher.Thread]int      // pre-inheritance priorities
}

// NewPCP returns a fresh priority-ceiling policy.
func NewPCP() *PCP {
	return &PCP{
		ceilings: make(map[srpKey]int),
		heldBy:   make(map[*dispatcher.Thread][]string),
		baseline: make(map[*dispatcher.Thread]int),
	}
}

// Name implements dispatcher.ResourcePolicy.
func (*PCP) Name() string { return "PCP" }

// Init implements dispatcher.ResourcePolicy: compute static resource
// ceilings from the declared use sets. Priorities must already be
// assigned (App.Seal runs the scheduler's Init before the policy's).
func (p *PCP) Init(tasks []*heug.Task, prim dispatcher.Primitive) {
	p.prim = prim
	for _, t := range tasks {
		for _, e := range t.EUs {
			if e.Code == nil {
				continue
			}
			for _, r := range e.Code.Resources {
				k := srpKey{e.Code.Node, r.Resource}
				if e.Code.Prio > p.ceilings[k] {
					p.ceilings[k] = e.Code.Prio
				}
			}
		}
	}
}

// ceiling returns a resource's ceiling on a node.
func (p *PCP) ceiling(node int, resource string) int {
	return p.ceilings[srpKey{node, resource}]
}

// CanStart implements dispatcher.ResourcePolicy: the PCP grant rule. A
// thread that requests no resources always passes — its inversion is
// bounded by inheritance, not gating.
func (p *PCP) CanStart(th *dispatcher.Thread) bool {
	if len(th.EU().Code.Resources) == 0 {
		return true
	}
	node := th.Node()
	for other, res := range p.heldBy {
		if other == th || other.Node() != node {
			continue
		}
		for _, r := range res {
			if th.Priority() <= p.ceilings[srpKey{node, r}] {
				return false
			}
		}
	}
	return true
}

// OnGrant implements dispatcher.ResourcePolicy.
func (p *PCP) OnGrant(th *dispatcher.Thread) {
	if held := th.HeldResources(); len(held) > 0 {
		p.heldBy[th] = held
	}
}

// OnRelease implements dispatcher.ResourcePolicy: drop the hold record
// and undo any inheritance.
func (p *PCP) OnRelease(th *dispatcher.Thread) {
	delete(p.heldBy, th)
	if base, ok := p.baseline[th]; ok {
		delete(p.baseline, th)
		p.prim.SetPriority(th, base)
	}
}

// OnBlocked implements dispatcher.ResourcePolicy: priority inheritance.
// Every holder standing in the blocked thread's way — by a mode
// conflict (passed in) or by the ceiling gate (computed here) — inherits
// its priority if lower. Holders are processed in creation order so
// the resulting priority-change trace is deterministic.
func (p *PCP) OnBlocked(blocked *dispatcher.Thread, holders []*dispatcher.Thread) {
	all := make(map[*dispatcher.Thread]bool, len(holders))
	for _, h := range holders {
		all[h] = true
	}
	node := blocked.Node()
	for other, res := range p.heldBy {
		if other == blocked || other.Node() != node || all[other] {
			continue
		}
		for _, r := range res {
			if blocked.Priority() <= p.ceilings[srpKey{node, r}] {
				all[other] = true
				break
			}
		}
	}
	ordered := make([]*dispatcher.Thread, 0, len(all))
	for h := range all {
		ordered = append(ordered, h)
	}
	sortThreads(ordered)
	for _, h := range ordered {
		if h.Priority() < blocked.Priority() {
			if _, ok := p.baseline[h]; !ok {
				p.baseline[h] = h.Priority()
			}
			p.prim.SetPriority(h, blocked.Priority())
		}
	}
}

// sortThreads orders threads by global creation sequence.
func sortThreads(ts []*dispatcher.Thread) {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j].SeqNo() < ts[j-1].SeqNo(); j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}
