package sched

import (
	"cmp"
	"slices"

	"hades/internal/dispatcher"
	"hades/internal/heug"
	"hades/internal/vtime"
)

// Spring is a planning-based policy in the style of the Spring kernel's
// guarantee algorithm [RSS90], one of the paper's three scheduler
// families (§1: "planning-based scheduling policies"). Each activation
// request passes a dynamic guarantee test: the scheduler tentatively
// extends its plan — a serialised schedule of admitted, unfinished jobs
// ordered by the heuristic function H — and admits the request only if
// every job in the extended plan still meets its deadline. Admitted
// jobs' start times are enforced through the dispatcher primitive's
// earliest attribute, which is exactly why §3.1.2 makes earliest
// dynamically assignable ("These two kinds of definitions serve ... at
// implementing static and dynamic planning-based scheduling
// algorithms").
//
// The heuristic H here is minimum-deadline-first, the strongest simple
// heuristic evaluated in [RSS90]. Overhead is charged per notification
// like any scheduler (Cost), and the per-job cost estimate includes the
// dispatcher constants so the plan is honest about middleware overhead.
type Spring struct {
	cost     vtime.Duration
	overhead vtime.Duration // per-job dispatching overhead folded into the plan

	jobs []*springJob // admitted, unfinished
}

type springJob struct {
	task     string
	deadline vtime.Time
	work     vtime.Duration
	started  bool
	threads  []*dispatcher.Thread
}

// NewSpring returns a planning policy whose per-notification cost is
// cost; overhead is added to each job's planned work to account for
// dispatching costs.
func NewSpring(cost, overhead vtime.Duration) *Spring {
	return &Spring{cost: cost, overhead: overhead}
}

// Name implements dispatcher.Scheduler.
func (*Spring) Name() string { return "Spring" }

// Cost implements dispatcher.Scheduler.
func (s *Spring) Cost() vtime.Duration { return s.cost }

// Wants implements dispatcher.Scheduler.
func (*Spring) Wants(k dispatcher.NotifKind) bool {
	return k == dispatcher.NotifAtv || k == dispatcher.NotifTrm
}

// Init implements dispatcher.Scheduler: plan order is enforced through
// earliest times; priorities are uniform.
func (*Spring) Init(tasks []*heug.Task) {
	for _, t := range tasks {
		setPriority(t, BaseGuaranteed)
	}
}

// Admit implements dispatcher.Admitter: the Spring guarantee test. The
// candidate plan is every unfinished job plus the request, ordered by H
// (earliest deadline); the request is guaranteed iff the serialised
// plan misses no deadline. An admitted job is committed to the plan
// *synchronously*, before the admission returns — the reservation must
// be visible to the very next admission test even though the Atv
// notification that binds threads to it is processed later (and costs
// scheduler CPU).
func (s *Spring) Admit(task *heug.Task, at vtime.Time) bool {
	cand := &springJob{
		task:     task.Name,
		deadline: at.Add(task.Deadline),
		work:     task.TotalWCET() + s.overhead,
	}
	s.prune()
	plan := make([]*springJob, 0, len(s.jobs)+1)
	plan = append(plan, s.jobs...)
	plan = append(plan, cand)
	if !s.feasible(plan, at) {
		return false
	}
	s.jobs = append(s.jobs, cand)
	return true
}

// feasible serialises the plan in H order from time at and checks every
// deadline.
func (s *Spring) feasible(plan []*springJob, at vtime.Time) bool {
	sorted := make([]*springJob, len(plan))
	copy(sorted, plan)
	slices.SortStableFunc(sorted, byDeadline)
	t := at
	for _, j := range sorted {
		t = t.Add(j.work)
		if t > j.deadline {
			return false
		}
	}
	return true
}

// prune drops completed or orphaned jobs from the plan.
func (s *Spring) prune() {
	keep := s.jobs[:0]
	for _, j := range s.jobs {
		done := len(j.threads) > 0
		for _, th := range j.threads {
			if !th.Finished() && !th.Orphaned() {
				done = false
				break
			}
		}
		if !done {
			keep = append(keep, j)
		}
	}
	s.jobs = keep
}

// Handle implements dispatcher.Scheduler: admitted activations are
// inserted into the plan and the plan's serialisation is re-imposed via
// earliest start times.
func (s *Spring) Handle(n dispatcher.Notification, prim dispatcher.Primitive) {
	switch n.Kind {
	case dispatcher.NotifAtv:
		inst := n.Thread.Instance()
		job := s.findJob(inst, n.Thread.TaskName(), n.Thread.AbsDeadline())
		if job == nil {
			// No reservation matches the thread's (task, deadline):
			// register the job now.
			job = &springJob{
				task:     n.Thread.TaskName(),
				deadline: n.Thread.AbsDeadline(),
				work:     inst.TR.Task.TotalWCET() + s.overhead,
			}
			s.jobs = append(s.jobs, job)
		}
		job.threads = append(job.threads, n.Thread)
	case dispatcher.NotifTrm:
		s.prune()
	}
	s.replan(prim)
}

// findJob locates the plan entry for an instance: first by bound
// threads, then by the (task, deadline) reservation Admit committed.
func (s *Spring) findJob(inst *dispatcher.Instance, task string, deadline vtime.Time) *springJob {
	for _, j := range s.jobs {
		for _, th := range j.threads {
			if th.Instance() == inst {
				return j
			}
		}
	}
	for _, j := range s.jobs {
		if len(j.threads) == 0 && j.task == task && j.deadline == deadline {
			return j
		}
	}
	return nil
}

// replan recomputes planned start times in H order and pushes them to
// the not-yet-started jobs through the primitive.
func (s *Spring) replan(prim dispatcher.Primitive) {
	s.prune()
	sorted := make([]*springJob, len(s.jobs))
	copy(sorted, s.jobs)
	slices.SortStableFunc(sorted, byDeadline)
	t := prim.Now()
	for _, j := range sorted {
		if anyStarted(j.threads) {
			j.started = true
		}
		if !j.started {
			for _, th := range j.threads {
				if !th.Finished() && !th.Orphaned() && th.Earliest() < t {
					prim.SetEarliest(th, t)
				}
			}
		}
		// Conservative: reserve a job's full work even once started.
		t = t.Add(j.work)
	}
}

func anyStarted(threads []*dispatcher.Thread) bool {
	for _, th := range threads {
		if th.Started() || th.Finished() {
			return true
		}
	}
	return false
}

// byDeadline is the heuristic H: minimum deadline first.
func byDeadline(a, b *springJob) int { return cmp.Compare(a.deadline, b.deadline) }
