package dispatcher

import (
	"cmp"
	"slices"
	"strings"

	"hades/internal/heug"
	"hades/internal/monitor"
)

// resource is a processor-local resource (§3.1.1): any hardware or
// software component an action needs, with shared/exclusive access
// modes. State attached to it is readable and writable by actions that
// hold it.
type resource struct {
	holds []hold
	state any
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
		r = &resource{}
		ns.resources[name] = r
	}
	return r
}

// tryGrant atomically grants all of th's resources if every one is
// mode-compatible and the application's resource policy allows the
// thread to start. All-or-nothing acquisition before the unit starts is
// what makes worst-case blocking analysable (§3.3).
func (d *Dispatcher) tryGrant(th *Thread) bool {
	reqs := th.eu.Code.Resources
	for _, req := range reqs {
		if !d.resourceOn(th.Node(), req.Resource).compatible(req.Mode) {
			return false
		}
	}
	if !th.inst.TR.App.policy.CanStart(th) {
		return false
	}
	for _, req := range reqs {
		r := d.resourceOn(th.Node(), req.Resource)
		r.holds = append(r.holds, hold{th: th, mode: req.Mode})
		d.eng.Recordf(monitor.KindResourceGrant, th.Node(), req.Resource, "%s %s", th.name, req.Mode.String())
	}
	th.held = th.inst.TR.grants[th.euIdx]
	th.inst.TR.App.policy.OnGrant(th)
	d.removeWaiter(th)
	return true
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
	th.inst.TR.App.policy.OnRelease(th)
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
	pending := make([]*Thread, 0, len(ns.waiters))
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

// conflictingHolders returns the distinct threads holding resources that
// block th, in deterministic order.
func (d *Dispatcher) conflictingHolders(th *Thread) []*Thread {
	seen := map[*Thread]bool{}
	var out []*Thread
	for _, req := range th.eu.Code.Resources {
		r := d.resourceOn(th.Node(), req.Resource)
		if r.compatible(req.Mode) {
			continue
		}
		for _, h := range r.holds {
			if h.th != th && !seen[h.th] {
				seen[h.th] = true
				out = append(out, h.th)
			}
		}
	}
	slices.SortFunc(out, func(a, b *Thread) int { return cmp.Compare(a.seqNo, b.seqNo) })
	return out
}

// checkDeadlock searches the wait-for graph for a cycle reachable from
// th (§3.2.1 lists deadlock among the events the dispatcher detects).
// Edges: blocked thread → holders of its conflicting resources; a
// synchronous Inv_EU thread → unfinished threads of the invoked
// instance; a thread → its unfinished precedence predecessors. Cycles
// arise, e.g., when a task holding a resource synchronously invokes a
// task that needs that resource.
func (d *Dispatcher) checkDeadlock(start *Thread) {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[*Thread]int{}
	var stack []*Thread
	var cycle []*Thread

	var succ func(t *Thread) []*Thread
	succ = func(t *Thread) []*Thread {
		switch t.state {
		case threadWaitResources:
			return d.conflictingHolders(t)
		case threadWaitInstance:
			if t.waitInst == nil {
				return nil
			}
			var out []*Thread
			for _, w := range t.waitInst.Threads {
				if w.state != threadDone && w.state != threadOrphaned {
					out = append(out, w)
				}
			}
			return out
		case threadWaitPreds:
			var out []*Thread
			for _, pi := range t.inst.TR.Task.Preds(t.euIdx) {
				w := t.inst.Threads[pi]
				if w.state != threadDone && w.state != threadOrphaned {
					out = append(out, w)
				}
			}
			return out
		}
		return nil
	}

	var dfs func(t *Thread) bool
	dfs = func(t *Thread) bool {
		color[t] = gray
		stack = append(stack, t)
		for _, n := range succ(t) {
			switch color[n] {
			case white:
				if dfs(n) {
					return true
				}
			case gray:
				// Found a cycle: slice it out of the stack.
				for i, s := range stack {
					if s == n {
						cycle = append(cycle, stack[i:]...)
						break
					}
				}
				return true
			}
		}
		stack = stack[:len(stack)-1]
		color[t] = black
		return false
	}

	if dfs(start) && len(cycle) > 0 {
		names := make([]string, len(cycle))
		for i, t := range cycle {
			names[i] = t.name
		}
		d.stats.Deadlocks++
		d.eng.Recordf(monitor.KindDeadlock, start.Node(), start.name,
			"cycle: %s", strings.Join(names, " -> "))
	}
}
