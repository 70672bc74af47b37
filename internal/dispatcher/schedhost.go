package dispatcher

import (
	"slices"
	"strconv"

	"hades/internal/monitor"
	"hades/internal/simkern"
)

// schedHost executes one application's scheduler on one node. The paper
// models every scheduler as a task with a statically-defined (highest)
// priority that blocks on a FIFO queue shared with the dispatcher
// (§3.2.2); here each queued notification costs Cost() of CPU at
// PrioScheduler before Handle's decisions apply — the exact shape of
// Figure 2, where the EDF thread t_edf preempts the running thread on
// every Atv/Trm and only then adjusts priorities.
type schedHost struct {
	app   *App
	node  int
	queue []Notification
	busy  bool
	seq   uint64
}

// notify enqueues a notification for the application's scheduler if the
// policy subscribed to its kind, and starts the host if it was idle.
func (a *App) notify(kind NotifKind, th *Thread) {
	if a.sched == nil || !a.sched.Wants(kind) {
		return
	}
	node := th.Node()
	h := a.hosts[node]
	if h == nil {
		h = &schedHost{app: a, node: node}
		a.hosts[node] = h
	}
	n := Notification{Kind: kind, Thread: th}
	a.disp.eng.Recordf(monitor.KindNotification, node, kind.String(), "%s", th.name)
	h.queue = append(h.queue, n)
	if !h.busy {
		h.busy = true
		h.processNext()
	}
}

// processNext consumes the queue head: a scheduler thread burns Cost()
// of CPU at PrioScheduler, then Handle applies the policy's decisions
// through the dispatcher primitive.
//
// Handle runs from the *segment* callback, while the scheduler thread
// still holds the CPU: a batch of priority changes then causes exactly
// one dispatch when the scheduler completes (its zero-length drain
// segment), never a cascade of transient context switches — matching
// both real kernels (the highest-priority scheduler shields the CPU
// until it blocks back on the FIFO) and the three-switch-per-
// notification allowance of the §5.3 analysis.
func (h *schedHost) processNext() {
	if len(h.queue) == 0 {
		h.busy = false
		return
	}
	d := h.app.disp
	h.seq++
	var buf [64]byte
	name := append(append(buf[:0], "sched."...), h.app.Name...)
	name = strconv.AppendInt(append(name, "@n"...), int64(h.node), 10)
	name = strconv.AppendUint(append(name, '#'), h.seq, 10)
	proc := d.node(h.node).proc
	k := proc.NewThread(string(name), PrioScheduler)
	k.AddSegment(simkern.Segment{
		Work: h.app.sched.Cost(),
		PT:   simkern.PrioMax,
		OnDone: func() {
			n := h.queue[0]
			// Shift in place: the backing array is reused, so a steady
			// notify/process cycle appends without allocating.
			h.queue = slices.Delete(h.queue, 0, 1)
			d.eng.Recordf(monitor.KindSchedulerRun, h.node, h.app.sched.Name(), "%s %s", n.Kind.String(), n.Thread.name)
			h.app.sched.Handle(n, d)
		},
	})
	k.AddSegment(simkern.Segment{Work: 0, PT: simkern.PrioMax}) // drain
	k.OnComplete = h.processNext
	k.Ready()
}
