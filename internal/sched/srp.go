package sched

import (
	"hades/internal/dispatcher"
	"hades/internal/heug"
	"hades/internal/vtime"
)

// SRP implements Baker's Stack Resource Policy [Bak91], one of the two
// anti-priority-inversion protocols the paper designed on the HADES task
// model (§3.3). Each task has a static preemption level π, inversely
// ordered with its relative deadline; each resource a ceiling — the
// highest π among its users; each node a system ceiling — the maximum
// ceiling over currently held resources. A job may start only when its
// preemption level strictly exceeds the system ceiling, which guarantees
// that once started it never blocks, bounds blocking to a single outer
// critical section, and (unlike PCP) requires no priority manipulation
// at all: the Rac/Rre notification traffic is enough.
type SRP struct {
	levels   map[string]int         // task name → preemption level π
	ceilings map[srpKey]int         // (node, resource) → ceiling
	stack    map[int][]srpStackItem // node → held-resource stack
}

type srpKey struct {
	node     int
	resource string
}

type srpStackItem struct {
	th      *dispatcher.Thread
	ceiling int
}

// NewSRP returns a fresh Stack Resource Policy.
func NewSRP() *SRP {
	return &SRP{
		levels:   make(map[string]int),
		ceilings: make(map[srpKey]int),
		stack:    make(map[int][]srpStackItem),
	}
}

// Name implements dispatcher.ResourcePolicy.
func (*SRP) Name() string { return "SRP" }

// Init implements dispatcher.ResourcePolicy: preemption levels are
// assigned by relative deadline (shorter deadline → higher level), and
// resource ceilings follow from static use sets — both computable
// offline thanks to the HEUG model's declared resource requests (§3.3).
func (s *SRP) Init(tasks []*heug.Task, _ dispatcher.Primitive) {
	order := make([]*heug.Task, len(tasks))
	copy(order, tasks)
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && deadlineOf(order[j]) < deadlineOf(order[j-1]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	for rank, t := range order {
		s.levels[t.Name] = len(order) - rank // shortest deadline → highest π
	}
	for _, t := range tasks {
		pi := s.levels[t.Name]
		for _, e := range t.EUs {
			if e.Code == nil {
				continue
			}
			for _, r := range e.Code.Resources {
				k := srpKey{e.Code.Node, r.Resource}
				if pi > s.ceilings[k] {
					s.ceilings[k] = pi
				}
			}
		}
	}
}

func deadlineOf(t *heug.Task) vtime.Duration {
	if t.Deadline > 0 {
		return t.Deadline
	}
	return vtime.Forever
}

// level returns a task's preemption level.
func (s *SRP) level(task string) int { return s.levels[task] }

// ceiling returns a resource's ceiling on a node.
func (s *SRP) ceiling(node int, resource string) int {
	return s.ceilings[srpKey{node, resource}]
}

// systemCeiling returns the current system ceiling of a node.
func (s *SRP) systemCeiling(node int) int {
	max := 0
	for _, it := range s.stack[node] {
		if it.ceiling > max {
			max = it.ceiling
		}
	}
	return max
}

// CanStart implements dispatcher.ResourcePolicy: the SRP preemption
// test. A job whose preemption level does not exceed the node's system
// ceiling may not start — unless it is itself a holder contributing the
// ceiling (cannot happen with all-at-start acquisition, kept for
// safety).
func (s *SRP) CanStart(th *dispatcher.Thread) bool {
	pi := s.levels[th.TaskName()]
	node := th.Node()
	max := 0
	for _, it := range s.stack[node] {
		if it.th == th {
			continue
		}
		if it.ceiling > max {
			max = it.ceiling
		}
	}
	return pi > max
}

// OnGrant implements dispatcher.ResourcePolicy: push the ceilings of
// the acquired resources.
func (s *SRP) OnGrant(th *dispatcher.Thread) {
	node := th.Node()
	for _, r := range th.HeldResources() {
		s.stack[node] = append(s.stack[node], srpStackItem{th: th, ceiling: s.ceilings[srpKey{node, r}]})
	}
}

// OnRelease implements dispatcher.ResourcePolicy: pop th's entries.
func (s *SRP) OnRelease(th *dispatcher.Thread) {
	node := th.Node()
	kept := s.stack[node][:0]
	for _, it := range s.stack[node] {
		if it.th != th {
			kept = append(kept, it)
		}
	}
	s.stack[node] = kept
}

// OnBlocked implements dispatcher.ResourcePolicy: SRP needs no
// inheritance — a blocked job simply has not started, and everything
// that could block it runs at a ceiling that prevents the inversion.
func (*SRP) OnBlocked(*dispatcher.Thread, []*dispatcher.Thread) {}
