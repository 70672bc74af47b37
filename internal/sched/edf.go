package sched

import (
	"cmp"
	"slices"

	"hades/internal/dispatcher"
	"hades/internal/heug"
	"hades/internal/vtime"
)

// EDF is the Earliest Deadline First policy [LL73], built exactly as
// Figure 2 prescribes: the scheduler consumes Atv and Trm notifications
// from the dispatcher's FIFO and reorders live threads' priorities with
// the dispatcher primitive so that the thread with the earliest absolute
// deadline always has the highest priority of the application band.
type EDF struct {
	cost vtime.Duration
	live map[int][]*dispatcher.Thread // per node, maintained sorted
}

// NewEDF returns an EDF policy whose per-notification processing cost is
// cost (C_sched in the §5.3 analysis).
func NewEDF(cost vtime.Duration) *EDF {
	return &EDF{cost: cost, live: make(map[int][]*dispatcher.Thread)}
}

// Name implements dispatcher.Scheduler.
func (*EDF) Name() string { return "EDF" }

// Cost implements dispatcher.Scheduler.
func (e *EDF) Cost() vtime.Duration { return e.cost }

// Wants implements dispatcher.Scheduler: EDF reacts to activations and
// terminations (Figure 2 shows it ignoring Rac/Rre).
func (*EDF) Wants(k dispatcher.NotifKind) bool {
	return k == dispatcher.NotifAtv || k == dispatcher.NotifTrm
}

// Init implements dispatcher.Scheduler: all units start at the band
// floor; ordering is established dynamically.
func (*EDF) Init(tasks []*heug.Task) {
	for _, t := range tasks {
		for _, e := range t.EUs {
			if e.Code != nil {
				e.Code.Prio = BaseGuaranteed
			}
		}
	}
}

// Handle implements dispatcher.Scheduler.
func (e *EDF) Handle(n dispatcher.Notification, prim dispatcher.Primitive) {
	node := n.Thread.Node()
	switch n.Kind {
	case dispatcher.NotifAtv:
		e.live[node] = append(e.live[node], n.Thread)
	case dispatcher.NotifTrm:
		e.remove(node, n.Thread)
	default:
		return
	}
	e.reorder(node, prim)
}

func (e *EDF) remove(node int, th *dispatcher.Thread) {
	l := e.live[node]
	for i, t := range l {
		if t == th {
			e.live[node] = append(l[:i], l[i+1:]...)
			return
		}
	}
}

// reorder reassigns priorities on one node: earliest deadline highest.
// Finished or orphaned threads are pruned first (orphans never emit Trm).
func (e *EDF) reorder(node int, prim dispatcher.Primitive) {
	l := e.live[node][:0]
	for _, t := range e.live[node] {
		if !t.Finished() && !t.Orphaned() {
			l = append(l, t)
		}
	}
	e.live[node] = l
	slices.SortStableFunc(l, func(a, b *dispatcher.Thread) int { return cmp.Compare(a.AbsDeadline(), b.AbsDeadline()) })
	for rank, t := range l {
		prio := BaseGuaranteed + len(l) - rank
		if prio != t.Priority() {
			prim.SetPriority(t, prio)
		}
	}
}

// Live returns the number of live threads EDF tracks on a node (test
// hook).
func (e *EDF) Live(node int) int { return len(e.live[node]) }
