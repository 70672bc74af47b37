package dispatcher

import (
	"cmp"
	"slices"

	"hades/internal/heug"
	"hades/internal/monitor"
)

// resource is a processor-local resource (§3.1.1): any hardware or
// software component an action needs, with shared/exclusive access
// modes. State attached to it is readable and writable by actions that
// hold it.
type resource struct {
	name  string
	holds []hold
}

type hold struct {
	th   *Thread
	mode heug.AccessMode
}

func (r *resource) compatible(mode heug.AccessMode) bool {
	if len(r.holds) == 0 {
		return true
	}
	if mode == heug.Exclusive {
		return false
	}
	for _, h := range r.holds {
		if h.mode == heug.Exclusive {
			return false
		}
	}
	return true
}

func (d *Dispatcher) resourceOn(node int, name string) *resource {
	ns := d.node(node)
	r := ns.resources[name]
	if r == nil {
		r = &resource{name: name}
		ns.resources[name] = r
		ns.ordered = append(ns.ordered, r)
	}
	return r
}

// tryGrant atomically grants all of th's resources if every one is
// mode-compatible and th passes the start test. All-or-nothing
// acquisition before the unit starts is what makes worst-case blocking
// analysable (§3.3).
func (d *Dispatcher) tryGrant(th *Thread) bool {
	reqs := th.eu.Code.Resources
	for _, req := range reqs {
		if !d.resourceOn(th.Node(), req.Resource).compatible(req.Mode) {
			return false
		}
	}
	if d.holders = d.ceilingHolders(d.holders[:0], th); len(d.holders) > 0 {
		return false
	}
	for _, req := range reqs {
		r := d.resourceOn(th.Node(), req.Resource)
		r.holds = append(r.holds, hold{th: th, mode: req.Mode})
		d.eng.Recordf(monitor.KindResourceGrant, th.Node(), req.Resource, "%s %s", th.name, req.Mode.String())
	}
	th.held = th.inst.TR.grants[th.euIdx]
	d.removeWaiter(th)
	return true
}

// ceilingHolders is the start test of SRP and PCP (§3.3), and the one
// place it runs. It appends to out the other threads of th's App whose
// holds on th's node have a Ceiling, under that App's policy, at or
// above th's Level. th may start only when there is none: when its
// Level strictly exceeds the system ceiling, the highest Ceiling among
// the resources the App's other threads hold on the node.
func (d *Dispatcher) ceilingHolders(out []*Thread, th *Thread) []*Thread {
	app := th.inst.TR.App
	level := app.policy.Level(th)
	for _, r := range d.node(th.Node()).ordered {
		for _, h := range r.holds {
			if h.th != th && h.th.inst.TR.App == app && level <= app.policy.Ceiling(th.Node(), r.name) {
				out = append(out, h.th)
			}
		}
	}
	return out
}

// releaseResources releases everything th holds, notifies Rre, and
// re-evaluates blocked threads in deterministic priority order.
func (d *Dispatcher) releaseResources(th *Thread) {
	if len(th.held) == 0 {
		d.removeWaiter(th)
		return
	}
	ns := d.node(th.Node())
	for _, name := range th.held {
		r := ns.resources[name]
		if r == nil {
			continue
		}
		for i, h := range r.holds {
			if h.th == th {
				r.holds = append(r.holds[:i], r.holds[i+1:]...)
				break
			}
		}
		d.eng.Recordf(monitor.KindResourceRelease, th.Node(), name, "%s", th.name)
	}
	th.held = nil
	if inh, ok := th.inst.TR.App.policy.(Inheritor); ok {
		inh.OnRelease(th)
	}
	th.inst.TR.App.notify(NotifRre, th)
	d.wakeWaiters(ns)
}

// wakeWaiters re-evaluates threads blocked on resources of a node, in
// priority order (then global creation order), so the highest-priority
// blocked thread gets the first chance at freed resources.
func (d *Dispatcher) wakeWaiters(ns *nodeState) {
	if len(ns.waiters) == 0 {
		return
	}
	// The list is taken while in use, so a wake nested in an evaluate
	// (none is: a grant or a refusal only arms kernel events) would
	// make its own rather than clobber this one.
	pending := d.wake[:0]
	d.wake = nil
	for _, w := range ns.waiters {
		if w.state == threadWaitResources {
			pending = append(pending, w)
		}
	}
	slices.SortStableFunc(pending, func(a, b *Thread) int {
		return cmp.Or(cmp.Compare(b.prio, a.prio), cmp.Compare(a.seqNo, b.seqNo))
	})
	for _, w := range pending {
		if w.state == threadWaitResources {
			d.evaluate(w)
		}
	}
	d.wake = pending[:0]
}

// removeWaiter drops th from its node's blocked list.
func (d *Dispatcher) removeWaiter(th *Thread) {
	ns := d.node(th.Node())
	for i, w := range ns.waiters {
		if w == th {
			ns.waiters = append(ns.waiters[:i], ns.waiters[i+1:]...)
			return
		}
	}
}

// conflictingHolders appends to out the threads holding, in a
// conflicting mode, resources th needs.
func (d *Dispatcher) conflictingHolders(out []*Thread, th *Thread) []*Thread {
	for _, req := range th.eu.Code.Resources {
		r := d.resourceOn(th.Node(), req.Resource)
		if r.compatible(req.Mode) {
			continue
		}
		for _, h := range r.holds {
			if h.th != th {
				out = append(out, h.th)
			}
		}
	}
	return out
}

// blockers returns the distinct threads in th's way, in creation order:
// its conflicting holders and its ceiling holders.
func (d *Dispatcher) blockers(th *Thread) []*Thread {
	return byCreation(d.ceilingHolders(d.conflictingHolders(nil, th), th))
}

// byCreation sorts ts by creation order and drops repeats.
func byCreation(ts []*Thread) []*Thread {
	slices.SortFunc(ts, func(a, b *Thread) int { return cmp.Compare(a.seqNo, b.seqNo) })
	return slices.Compact(ts)
}

// checkHoldAndWait checks §3.3's no-hold-and-wait rule where th is
// refused (§3.2.1 lists deadlock among the events the dispatcher
// detects). A Code_EU takes all its resources at once before it starts
// and never waits while it holds them, so no wait-for cycle can form:
// every thread in th's way, conflicting holder or ceiling holder, must
// be ready or finishing. One parked in a wait state records DEADLOCK.
func (d *Dispatcher) checkHoldAndWait(th *Thread) {
	d.holders = d.ceilingHolders(d.conflictingHolders(d.holders[:0], th), th)
	for _, h := range d.holders {
		if h.state.waiting() {
			d.stats.Deadlocks++
			d.eng.Recordf(monitor.KindDeadlock, th.Node(), th.name,
				"%s holds %v in %s", h.name, h.held, h.state.String())
			return
		}
	}
}
