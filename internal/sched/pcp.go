package sched

import (
	"math"

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
//     jobs of its App on its node (the PCP grant rule, which the
//     dispatcher's start test applies to Level and Ceiling);
//   - while a job blocks, the holders responsible inherit its priority
//     through the dispatcher primitive, and revert on release.
//
// Compared to SRP, PCP achieves the same one-critical-section blocking
// bound but pays for it in priority-change traffic and extra context
// switches — experiment E-X2 measures exactly that difference.
type PCP struct {
	prim     dispatcher.Primitive
	ceilings map[resourceKey]int
	baseline map[*dispatcher.Thread]int // pre-inheritance priorities
}

// NewPCP returns a fresh priority-ceiling policy.
func NewPCP() *PCP { return &PCP{baseline: make(map[*dispatcher.Thread]int)} }

// Init implements dispatcher.ResourcePolicy: compute static resource
// ceilings from the declared use sets. Priorities must already be
// assigned (App.Seal runs the scheduler's Init before the policy's).
func (p *PCP) Init(tasks []*heug.Task, prim dispatcher.Primitive) {
	p.prim = prim
	p.ceilings = ceilingsOf(tasks, func(_ *heug.Task, c *heug.CodeEU) int { return c.Prio })
}

// Level implements dispatcher.ResourcePolicy: the PCP grant rule tests
// a resource user's current priority. A thread that requests no
// resources always passes — its inversion is bounded by inheritance,
// not gating.
func (p *PCP) Level(th *dispatcher.Thread) int {
	if len(th.EU().Code.Resources) == 0 {
		return math.MaxInt
	}
	return th.Priority()
}

// Ceiling implements dispatcher.ResourcePolicy.
func (p *PCP) Ceiling(node int, r string) int { return p.ceilings[resourceKey{node, r}] }

// OnRelease implements dispatcher.Inheritor: undo any inheritance.
func (p *PCP) OnRelease(th *dispatcher.Thread) {
	if base, ok := p.baseline[th]; ok {
		delete(p.baseline, th)
		p.prim.SetPriority(th, base)
	}
}

// OnBlocked implements dispatcher.Inheritor: priority inheritance.
// Every holder standing in the blocked thread's way, by a mode conflict
// or by the ceiling gate, inherits its priority if lower, in the
// creation order the dispatcher hands them in, so the resulting
// priority-change trace is deterministic.
func (p *PCP) OnBlocked(blocked *dispatcher.Thread, holders []*dispatcher.Thread) {
	for _, h := range holders {
		if h.Priority() < blocked.Priority() {
			if _, ok := p.baseline[h]; !ok {
				p.baseline[h] = h.Priority()
			}
			p.prim.SetPriority(h, blocked.Priority())
		}
	}
}
