// Package sched provides the application-domain-dependent half of HADES:
// scheduling policies and resource-access protocols, all built on the
// dispatcher's cooperation interface of §3.2.2 (notification FIFO +
// the one primitive).
//
// Scheduling policies, matching the paper's §3.3 inventory:
//
//   - Static: priorities assigned once at Init, with no notification
//     traffic — Rate Monotonic and Deadline Monotonic [LL73] (NewRM,
//     NewDM), and the fixed best-effort band for cohabitation (§2.2.1,
//     NewBestEffort);
//   - EDF: dynamic priorities driven by Atv/Trm notifications,
//     reproducing Figure 2's cooperation protocol;
//   - Spring-style planning (§1, [RSS90]): a dynamic guarantee test at
//     each activation plus plan-driven earliest start times.
//
// The anti-priority-inversion protocols of footnote 2 are static tables
// of levels and ceilings; the dispatcher holds the resources and runs
// their one start test:
//
//   - SRP (Stack Resource Policy [Bak91]);
//   - PCP-style priority ceilings with inheritance [CL90].
package sched

import (
	"cmp"
	"slices"

	"hades/internal/dispatcher"
	"hades/internal/heug"
	"hades/internal/vtime"
)

// Base priorities for application bands. Guaranteed applications sit in
// [BaseGuaranteed, BaseGuaranteed+band); best-effort ones below them.
const (
	// BaseGuaranteed is the floor of the guaranteed-application band.
	BaseGuaranteed = 1000
	// BaseBestEffort is the floor of the best-effort band.
	BaseBestEffort = 10
)

// ranked returns tasks sorted by order, first ranked first; ties keep
// their declaration order.
func ranked(tasks []*heug.Task, order func(a, b *heug.Task) int) []*heug.Task {
	out := slices.Clone(tasks)
	slices.SortStableFunc(out, order)
	return out
}

// setPriority sets every Code_EU of t to prio.
func setPriority(t *heug.Task, prio int) {
	for _, e := range t.EUs {
		if e.Code != nil {
			e.Code.Prio = prio
		}
	}
}

// Static is a fixed-priority policy: Init assigns every Code_EU its
// priority once, and the policy wants no notification, so its
// scheduling cost is zero — the §5.3 overhead comparison between static
// and dynamic policies rests on exactly this difference.
type Static struct {
	name string
	// order ranks tasks, highest priority first, one step apart above
	// BaseGuaranteed; nil puts every task at BaseBestEffort.
	order func(a, b *heug.Task) int
}

// NewRM returns the Rate Monotonic policy [LL73]: shorter period,
// higher priority.
func NewRM() *Static {
	return &Static{name: "RM", order: func(a, b *heug.Task) int { return cmp.Compare(a.Arrival.Period, b.Arrival.Period) }}
}

// NewDM returns the Deadline Monotonic policy: shorter relative
// deadline, higher priority.
func NewDM() *Static {
	return &Static{name: "DM", order: func(a, b *heug.Task) int { return cmp.Compare(a.Deadline, b.Deadline) }}
}

// NewBestEffort returns the best-effort policy: every task at the floor
// of the best-effort band with no guarantees, the cohabitation partner
// of §2.2.1's second option (one scheduler with a feasibility test plus
// any number of best-effort schedulers).
func NewBestEffort() *Static { return &Static{name: "best-effort"} }

// Name implements dispatcher.Scheduler.
func (s *Static) Name() string { return s.name }

// Cost implements dispatcher.Scheduler.
func (*Static) Cost() vtime.Duration { return 0 }

// Wants implements dispatcher.Scheduler: the policy is fully static.
func (*Static) Wants(dispatcher.NotifKind) bool { return false }

// Init implements dispatcher.Scheduler.
func (s *Static) Init(tasks []*heug.Task) {
	if s.order == nil {
		for _, t := range tasks {
			setPriority(t, BaseBestEffort)
		}
		return
	}
	for rank, t := range ranked(tasks, s.order) {
		setPriority(t, BaseGuaranteed+len(tasks)-rank)
	}
}

// Handle implements dispatcher.Scheduler.
func (*Static) Handle(dispatcher.Notification, dispatcher.Primitive) {}
