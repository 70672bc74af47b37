package heug

import (
	"errors"
	"fmt"
)

// Validation errors.
var (
	// ErrNotDAG is returned when the precedence constraints contain a
	// cycle: a HEUG must be a directed acyclic graph (§3.1).
	ErrNotDAG = errors.New("heug: precedence constraints contain a cycle")
	// ErrEmptyTask is returned for a task with no elementary units.
	ErrEmptyTask = errors.New("heug: task has no elementary units")
)

// Validate checks the structural rules of the task model and builds the
// adjacency indexes used by the dispatcher. It is idempotent.
//
// Checked rules (from §3.1):
//   - the task has at least one EU, and the graph is acyclic;
//   - every Code_EU has a positive WCET (its designer "must guarantee
//     that its worst case execution time can be determined");
//   - ActualWork, if present, is bounded by WCET for a correct unit —
//     this cannot be checked statically, so only WCET > 0 is enforced;
//   - edges reference valid units; no self-loops; no duplicate edges;
//   - every unit is a Code_EU, and its resource requests name distinct
//     resources.
func (t *Task) Validate() error {
	if len(t.EUs) == 0 {
		return fmt.Errorf("task %q: %w", t.Name, ErrEmptyTask)
	}
	if t.Deadline < 0 {
		return fmt.Errorf("task %q: negative deadline", t.Name)
	}
	switch t.Arrival.Kind {
	case Periodic, Sporadic:
		if t.Arrival.Period <= 0 {
			return fmt.Errorf("task %q: %s law requires a positive period", t.Name, t.Arrival.Kind)
		}
	case Aperiodic:
		// no constraints
	default:
		return fmt.Errorf("task %q: unknown arrival law", t.Name)
	}

	names := make(map[string]bool, len(t.EUs))
	for i, e := range t.EUs {
		if e.Name == "" {
			return fmt.Errorf("task %q: EU %d has no name", t.Name, i)
		}
		if names[e.Name] {
			return fmt.Errorf("task %q: duplicate EU name %q", t.Name, e.Name)
		}
		names[e.Name] = true
		c := e.Code
		if c == nil {
			return fmt.Errorf("task %q: EU %q has no Code_EU", t.Name, e.Name)
		}
		if c.WCET <= 0 {
			return fmt.Errorf("task %q: Code_EU %q must have a positive WCET", t.Name, e.Name)
		}
		if c.Node < 0 {
			return fmt.Errorf("task %q: Code_EU %q has negative node", t.Name, e.Name)
		}
		if c.Prio < 0 {
			return fmt.Errorf("task %q: Code_EU %q has negative priority", t.Name, e.Name)
		}
		if c.PT != 0 && c.PT < c.Prio {
			return fmt.Errorf("task %q: Code_EU %q preemption threshold %d below priority %d", t.Name, e.Name, c.PT, c.Prio)
		}
		if c.Earliest < 0 || c.Latest < 0 || c.Deadline < 0 {
			return fmt.Errorf("task %q: Code_EU %q has negative timing attribute", t.Name, e.Name)
		}
		seen := map[string]bool{}
		for _, r := range c.Resources {
			if r.Resource == "" {
				return fmt.Errorf("task %q: Code_EU %q requests unnamed resource", t.Name, e.Name)
			}
			if r.Mode != Shared && r.Mode != Exclusive {
				return fmt.Errorf("task %q: Code_EU %q resource %q has invalid mode", t.Name, e.Name, r.Resource)
			}
			if seen[r.Resource] {
				return fmt.Errorf("task %q: Code_EU %q requests resource %q twice", t.Name, e.Name, r.Resource)
			}
			seen[r.Resource] = true
		}
	}

	n := len(t.EUs)
	t.preds = make([][]int, n)
	t.succs = make([][]int, n)
	edgeSeen := make(map[[2]int]bool, len(t.Edges))
	for _, e := range t.Edges {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			return fmt.Errorf("task %q: edge %d->%d out of range", t.Name, e.From, e.To)
		}
		if e.From == e.To {
			return fmt.Errorf("task %q: self-loop on EU %q", t.Name, t.EUs[e.From].Name)
		}
		key := [2]int{e.From, e.To}
		if edgeSeen[key] {
			return fmt.Errorf("task %q: duplicate edge %q->%q", t.Name, t.EUs[e.From].Name, t.EUs[e.To].Name)
		}
		edgeSeen[key] = true
		t.succs[e.From] = append(t.succs[e.From], e.To)
		t.preds[e.To] = append(t.preds[e.To], e.From)
	}

	// Kahn's algorithm: the graph must be acyclic.
	indeg := make([]int, n)
	for i := range t.preds {
		indeg[i] = len(t.preds[i])
	}
	queue := make([]int, 0, n)
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	visited := 0
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		visited++
		for _, v := range t.succs[u] {
			indeg[v]--
			if indeg[v] == 0 {
				queue = append(queue, v)
			}
		}
	}
	if visited != n {
		return fmt.Errorf("task %q: %w", t.Name, ErrNotDAG)
	}
	t.validated = true
	return nil
}
