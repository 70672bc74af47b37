package scenario

import (
	"fmt"

	"hades/internal/cluster"
	"hades/internal/dispatcher"
	"hades/internal/feasibility"
	"hades/internal/heug"
	"hades/internal/sched"
	"hades/internal/vtime"
)

// StageSpec is one Code_EU of a multi-stage (pipeline) task. Stages
// form a chain in declaration order; consecutive stages on different
// nodes cross the network as remote precedence constraints.
type StageSpec struct {
	Name   string  `json:"name"`
	Node   int     `json:"node"`
	WCETUs float64 `json:"wcetUs"`
}

// TaskSpec describes one task in the JSON scenario: either a §5.1
// Spuri task (CBefore/CS/CAfter, single node) or a staged pipeline
// (Stages, possibly spanning nodes). The two forms are exclusive.
type TaskSpec struct {
	Name      string  `json:"name"`
	Node      int     `json:"node"`
	CBeforeUs float64 `json:"cBeforeUs"`
	CSUs      float64 `json:"csUs"`
	CAfterUs  float64 `json:"cAfterUs"`
	Resource  string  `json:"resource,omitempty"`
	// DeadlineMs is the relative deadline D.
	DeadlineMs float64 `json:"deadlineMs"`
	// PeriodMs is the period (periodic) or pseudo-period (sporadic).
	PeriodMs float64 `json:"periodMs"`
	// Law is "sporadic" (default) or "periodic".
	Law string `json:"law,omitempty"`
	// Stages, when present, makes the task a pipeline of Code_EUs
	// chained in order (a distributed task when nodes differ).
	Stages []StageSpec `json:"stages,omitempty"`
}

// LinkSpec declares one bidirectional link with delay bounds
// [dMin, dMax] — the synchrony assumption of the §2.1 system model.
type LinkSpec struct {
	A      int     `json:"a"`
	B      int     `json:"b"`
	DMinUs float64 `json:"dMinUs"`
	DMaxUs float64 `json:"dMaxUs"`
}

// The name tables below are each enum's single source (see named).
var (
	// schedulers build the scheduling policy.
	schedulers = map[string]func() dispatcher.Scheduler{
		"EDF":         func() dispatcher.Scheduler { return sched.NewEDF(20 * vtime.Microsecond) },
		"RM":          func() dispatcher.Scheduler { return sched.NewRM() },
		"DM":          func() dispatcher.Scheduler { return sched.NewDM() },
		"Spring":      func() dispatcher.Scheduler { return sched.NewSpring(15*vtime.Microsecond, 100*vtime.Microsecond) },
		"best-effort": func() dispatcher.Scheduler { return sched.NewBestEffort() },
	}
	// policies build the resource protocol; none is plain locking.
	policies = map[string]func() dispatcher.ResourcePolicy{
		"":     func() dispatcher.ResourcePolicy { return nil },
		"none": func() dispatcher.ResourcePolicy { return nil },
		"SRP":  func() dispatcher.ResourcePolicy { return sched.NewSRP() },
		"PCP":  func() dispatcher.ResourcePolicy { return sched.NewPCP() },
	}
	costBooks = map[string]dispatcher.CostBook{
		"": dispatcher.DefaultCostBook(), "default": dispatcher.DefaultCostBook(), "zero": dispatcher.ZeroCostBook()}
	laws = map[string]func(vtime.Duration) heug.Arrival{
		"": heug.SporadicEvery, "sporadic": heug.SporadicEvery, "periodic": heug.PeriodicEvery}
)

// validateTasks rejects a malformed platform or task set: unknown
// scheduler, policy, cost book or arrival law, tasks, stages and links
// on nodes the platform does not have, and timing fields
// that lower to nothing (a zero period would activate forever at one
// instant).
func (s Spec) validateTasks() error {
	if _, err := named(s, schedulers, s.Scheduler, "unknown scheduler"); err != nil {
		return err
	}
	if _, err := named(s, policies, s.Policy, "unknown policy"); err != nil {
		return err
	}
	if _, err := s.CostBook(); err != nil {
		return err
	}
	seen := map[string]bool{}
	for i, t := range s.Tasks {
		if t.Name == "" {
			return fmt.Errorf("scenario %q: task %d unnamed", s.Name, i)
		}
		if seen[t.Name] {
			return fmt.Errorf("scenario %q: duplicate task %q", s.Name, t.Name)
		}
		seen[t.Name] = true
		if msd(t.PeriodMs) <= 0 || msd(t.DeadlineMs) <= 0 {
			return fmt.Errorf("scenario %q: task %q needs positive period and deadline (at least 1ns)", s.Name, t.Name)
		}
		if _, err := s.law(t); err != nil {
			return err
		}
		if err := s.knownNode(t.Node, "task %q on", t.Name); err != nil {
			return err
		}
		if t.CBeforeUs < 0 || t.CSUs < 0 || t.CAfterUs < 0 {
			return fmt.Errorf("scenario %q: task %q has a negative computation time", s.Name, t.Name)
		}
		if len(t.Stages) > 0 && t.CBeforeUs+t.CSUs+t.CAfterUs > 0 {
			return fmt.Errorf("scenario %q: task %q mixes stages with cBefore/cs/cAfter", s.Name, t.Name)
		}
		if len(t.Stages) == 0 {
			if err := t.spuri().Validate(); err != nil {
				return fmt.Errorf("scenario %q: %v", s.Name, err)
			}
		}
		stages := map[string]bool{}
		for j, st := range t.Stages {
			if st.Name == "" {
				return fmt.Errorf("scenario %q: task %q stage %d unnamed", s.Name, t.Name, j)
			}
			if stages[st.Name] {
				return fmt.Errorf("scenario %q: task %q has two stages %q", s.Name, t.Name, st.Name)
			}
			stages[st.Name] = true
			if us(st.WCETUs) <= 0 {
				return fmt.Errorf("scenario %q: task %q stage %q needs positive wcet (at least 1ns)", s.Name, t.Name, st.Name)
			}
			if err := s.knownNode(st.Node, "task %q stage %q on", t.Name, st.Name); err != nil {
				return err
			}
		}
	}
	for _, l := range s.Links {
		for _, n := range []int{l.A, l.B} {
			if err := s.knownNode(n, "link %d-%d to", l.A, l.B); err != nil {
				return err
			}
		}
		if l.A == l.B {
			return fmt.Errorf("scenario %q: link %d-%d joins a node to itself", s.Name, l.A, l.B)
		}
		if l.DMinUs < 0 || l.DMaxUs < l.DMinUs {
			return fmt.Errorf("scenario %q: link %d-%d has bad delay bounds [%g,%g]", s.Name, l.A, l.B, l.DMinUs, l.DMaxUs)
		}
	}
	return nil
}

// attachTasks lowers the platform and the task set: nodes, declared
// links, the application under its scheduler and resource protocol, and
// every task driven per its arrival law.
func (s Spec) attachTasks(c *cluster.Cluster) error {
	c.AddNodes(s.Nodes)
	for _, l := range s.Links {
		c.Connect(l.A, l.B, us(l.DMinUs), us(l.DMaxUs))
	}
	policy, err := named(s, policies, s.Policy, "unknown policy")
	if err != nil {
		return err
	}
	scheduler, err := named(s, schedulers, s.Scheduler, "unknown scheduler")
	if err != nil {
		return err
	}
	app := c.NewApp(s.Name, scheduler(), policy())
	for _, ts := range s.Tasks {
		task, err := s.heugTask(ts)
		if err != nil {
			return err
		}
		if err := app.Spawn(task); err != nil {
			return err
		}
	}
	return nil
}

// spuri converts a non-staged task spec to the §5.1 model.
func (t TaskSpec) spuri() heug.SpuriTask {
	return heug.SpuriTask{
		Name:         t.Name,
		Node:         t.Node,
		CBefore:      us(t.CBeforeUs),
		CS:           us(t.CSUs),
		CAfter:       us(t.CAfterUs),
		Resource:     t.Resource,
		Deadline:     msd(t.DeadlineMs),
		PseudoPeriod: msd(t.PeriodMs),
	}
}

// law returns the HEUG arrival law of the task spec.
func (s Spec) law(t TaskSpec) (heug.Arrival, error) {
	every, err := named(s, laws, t.Law, "task %q has unknown law", t.Name)
	if err != nil {
		return heug.Arrival{}, err
	}
	return every(msd(t.PeriodMs)), nil
}

// heugTask builds the HEUG task for one spec entry.
func (s Spec) heugTask(t TaskSpec) (*heug.Task, error) {
	law, err := s.law(t)
	if err != nil {
		return nil, err
	}
	if len(t.Stages) == 0 {
		task, err := t.spuri().ToHEUG()
		if err != nil {
			return nil, err
		}
		task.Arrival = law
		return task, nil
	}
	b := heug.NewTask(t.Name, law).WithDeadline(msd(t.DeadlineMs))
	for _, stage := range t.Stages {
		b = b.Code(stage.Name, heug.CodeEU{Node: stage.Node, WCET: us(stage.WCETUs)})
	}
	for i := 1; i < len(t.Stages); i++ {
		b = b.Precede(t.Stages[i-1].Name, t.Stages[i].Name)
	}
	return b.Build()
}

// CostBook resolves the scenario's cost book. Like Build, it fails
// only on a spec changed after it was loaded.
func (s Spec) CostBook() (dispatcher.CostBook, error) {
	return named(s, costBooks, s.Costs, "unknown costs")
}

// AnalysisTasks derives the feasibility model from the HEUG tasks
// attachTasks spawns: each spec entry through heugTask, then
// feasibility.FromHEUG.
func (s Spec) AnalysisTasks() ([]feasibility.Task, error) {
	out := make([]feasibility.Task, len(s.Tasks))
	for i, ts := range s.Tasks {
		task, err := s.heugTask(ts)
		if err != nil {
			return nil, err
		}
		if out[i], err = feasibility.FromHEUG(task); err != nil {
			return nil, fmt.Errorf("scenario %q: %v", s.Name, err)
		}
	}
	return out, nil
}
