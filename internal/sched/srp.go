package sched

import (
	"cmp"

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
// preemption level strictly exceeds the system ceiling, which bounds
// blocking to a single outer critical section and (unlike PCP) requires
// no priority manipulation at all: the Rac/Rre notification traffic is
// enough.
//
// SRP is those two tables. The dispatcher keeps the holds and runs the
// start test (Dispatcher.ceilingHolders, from tryGrant), counting the
// holds of this policy's own App only. It runs the test when a thread
// becomes ready, not when the processor first runs it: a ready thread
// that has not started is not tested again when the ceiling rises
// (ROADMAP item 34).
type SRP struct {
	levels   map[string]int // task name → preemption level π
	ceilings map[resourceKey]int
}

// NewSRP returns a fresh Stack Resource Policy.
func NewSRP() *SRP { return &SRP{levels: make(map[string]int)} }

// Init implements dispatcher.ResourcePolicy: preemption levels are
// assigned by relative deadline (shorter deadline → higher level), and
// resource ceilings follow from static use sets — both computable
// offline thanks to the HEUG model's declared resource requests (§3.3).
func (s *SRP) Init(tasks []*heug.Task, _ dispatcher.Primitive) {
	order := ranked(tasks, func(a, b *heug.Task) int { return cmp.Compare(deadlineOf(a), deadlineOf(b)) })
	for rank, t := range order {
		s.levels[t.Name] = len(order) - rank // shortest deadline → highest π
	}
	s.ceilings = ceilingsOf(tasks, func(t *heug.Task, _ *heug.CodeEU) int { return s.levels[t.Name] })
}

func deadlineOf(t *heug.Task) vtime.Duration {
	if t.Deadline > 0 {
		return t.Deadline
	}
	return vtime.Forever
}

// Level implements dispatcher.ResourcePolicy: th's task's preemption
// level.
func (s *SRP) Level(th *dispatcher.Thread) int { return s.levels[th.TaskName()] }

// Ceiling implements dispatcher.ResourcePolicy.
func (s *SRP) Ceiling(node int, r string) int { return s.ceilings[resourceKey{node, r}] }

// resourceKey names a resource on a node.
type resourceKey struct {
	node     int
	resource string
}

// ceilingsOf gives each resource the tasks use its ceiling: the highest
// value over the Code_EUs that use it.
func ceilingsOf(tasks []*heug.Task, value func(t *heug.Task, c *heug.CodeEU) int) map[resourceKey]int {
	out := make(map[resourceKey]int)
	for _, t := range tasks {
		for _, e := range t.EUs {
			if e.Code == nil {
				continue
			}
			for _, r := range e.Code.Resources {
				k := resourceKey{e.Code.Node, r.Resource}
				if v := value(t, e.Code); v > out[k] {
					out[k] = v
				}
			}
		}
	}
	return out
}
