package dispatcher

import (
	"hades/internal/eventq"
	"hades/internal/heug"
	"hades/internal/monitor"
	"hades/internal/simkern"
	"hades/internal/vtime"
)

// threadState tracks where a thread is in the §3.2.1 lifecycle.
type threadState uint8

const (
	threadWaitPreds threadState = iota + 1
	threadWaitEarliest
	threadWaitConds
	threadWaitResources
	threadWaitInstance // sync Inv_EU awaiting the invoked instance
	threadReady        // handed to the kernel (runnable or running)
	threadDone
	threadOrphaned
)

func (s threadState) String() string {
	switch s {
	case threadWaitPreds:
		return "wait-preds"
	case threadWaitEarliest:
		return "wait-earliest"
	case threadWaitConds:
		return "wait-conds"
	case threadWaitResources:
		return "wait-resources"
	case threadWaitInstance:
		return "wait-instance"
	case threadReady:
		return "ready"
	case threadDone:
		return "done"
	case threadOrphaned:
		return "orphaned"
	default:
		return "?"
	}
}

// Thread executes one elementary unit of one task instance. Per §3.2.1
// a kernel thread is dedicated to one and only one Code_EU; Inv_EUs get
// a lightweight kernel thread that only carries the C_start_inv /
// C_end_inv dispatching work.
type Thread struct {
	inst  *Instance
	euIdx int
	eu    *heug.EU
	name  string
	seqNo uint64 // creation order on its dispatcher, deterministic tie-break

	prio     int
	earliest vtime.Time // absolute
	latest   vtime.Time // absolute, Infinity when unconstrained
	deadline vtime.Time // absolute unit deadline (monitoring)

	state     threadState
	racSent   bool
	inKernel  bool // kt initialised: the unit was handed to the kernel
	predsLeft int
	kt        simkern.Thread // the unit's kernel thread, initialised in place

	inputs, outputs map[string]any // nil until the first parameter

	held     []string  // resources currently held (node-local names)
	waitInst *Instance // sync Inv_EU target

	actual vtime.Duration // effective body execution time

	watchEarliest, watchLatest eventq.Handle // fire the thread as threadWatch
}

// threadWatch is the thread as the handler of its start watchdogs; the
// payload says which one fired.
type threadWatch struct{ th *Thread }

// The start watchdogs, by payload.
const (
	latestStart   uint64 = iota // the latest start time passed
	earliestStart               // the earliest start time came: evaluate again
	deferredStart               // the instant SetEarliest deferred a ready thread to
)

func (w threadWatch) Fire(kind uint64) {
	th := w.th
	d := th.inst.TR.App.disp
	switch kind {
	case latestStart:
		if !th.started() && th.state != threadDone && th.state != threadOrphaned {
			d.stats.LatestMisses++
			d.eng.Recordf(monitor.KindLatestStartMiss, th.Node(), th.name, "latest=%s", th.latest)
		}
	case earliestStart:
		d.evaluate(th)
	case deferredStart:
		if th.state == threadWaitEarliest && !th.inst.cancelled {
			th.state = threadReady
			th.kt.Ready()
		}
	}
}

// unitWork is the unit as the owner of its kernel thread, one pointer
// wide like threadWatch.
type unitWork struct{ th *Thread }

func (w unitWork) ThreadName() string { return w.th.name }

func (w unitWork) ThreadDone() {
	d := w.th.inst.TR.App.disp
	if w.th.eu.Inv != nil {
		d.finishInv(w.th)
	} else {
		d.finishCode(w.th)
	}
}

// Node returns the processor the thread is bound to.
func (th *Thread) Node() int { return th.eu.NodeOf() }

// Priority returns the thread's current priority.
func (th *Thread) Priority() int { return th.prio }

// Instance returns the owning task instance.
func (th *Thread) Instance() *Instance { return th.inst }

// TaskName returns the owning task's name.
func (th *Thread) TaskName() string { return th.inst.TR.Task.Name }

// EU returns the elementary unit the thread executes.
func (th *Thread) EU() *heug.EU { return th.eu }

// AbsDeadline returns the unit's absolute deadline: the unit-level
// deadline when declared, the task deadline otherwise. Dynamic
// schedulers (EDF) read it to order threads.
func (th *Thread) AbsDeadline() vtime.Time { return th.deadline }

// Earliest returns the thread's absolute earliest start time.
func (th *Thread) Earliest() vtime.Time { return th.earliest }

// Finished reports whether the unit completed.
func (th *Thread) Finished() bool { return th.state == threadDone }

// Started reports whether the thread has ever held the CPU.
func (th *Thread) Started() bool { return th.started() }

// Orphaned reports whether the unit was aborted with its instance
// (§3.2.1's orphan-thread event). Schedulers prune such threads from
// their live sets.
func (th *Thread) Orphaned() bool { return th.state == threadOrphaned }

func (th *Thread) started() bool { return th.kt.Started() }

// setInput hands parameter k to the thread, making its map on the first.
func (th *Thread) setInput(k string, v any) {
	if th.inputs == nil {
		th.inputs = make(map[string]any)
	}
	th.inputs[k] = v
}

// takeParams hands the thread the parameters of edge e that its source
// src wrote.
func (th *Thread) takeParams(src *Thread, e heug.Edge) {
	for _, p := range e.Params {
		if v, ok := src.outputs[p]; ok {
			th.setInput(p, v)
		}
	}
}

// initThread fills th, the instance's storage for EU index i, named
// name.
func (d *Dispatcher) initThread(th *Thread, inst *Instance, i int, eu *heug.EU, name string) {
	d.threadSeq++
	*th = Thread{
		inst:      inst,
		euIdx:     i,
		eu:        eu,
		name:      name,
		seqNo:     d.threadSeq,
		state:     threadWaitPreds,
		predsLeft: len(inst.TR.Task.Preds(i)),
		earliest:  inst.ActivatedAt,
		latest:    vtime.Infinity,
		deadline:  inst.AbsDeadline,
	}
	if c := eu.Code; c != nil {
		th.prio = c.Prio
		th.actual = c.WCET
		if c.ActualWork != nil {
			if a := c.ActualWork(inst.Seq); a > 0 {
				th.actual = a
			}
		}
		if c.Earliest > 0 {
			th.earliest = inst.ActivatedAt.Add(c.Earliest)
		}
		if c.Latest > 0 {
			th.latest = inst.ActivatedAt.Add(c.Latest)
		}
		if c.Deadline > 0 {
			th.deadline = inst.ActivatedAt.Add(c.Deadline)
		}
	}
}

// evaluate advances a thread through the four runnable conditions of
// §3.2.1: predecessors finished, earliest start time reached, condition
// variables set, resources grantable. It is idempotent and safe to call
// whenever any of those inputs may have changed.
func (d *Dispatcher) evaluate(th *Thread) {
	switch th.state {
	case threadReady, threadDone, threadOrphaned, threadWaitInstance:
		return
	}
	if th.inst.cancelled {
		return
	}
	if th.predsLeft > 0 {
		th.state = threadWaitPreds
		return
	}
	now := d.eng.Now()
	if now < th.earliest {
		th.state = threadWaitEarliest
		if !th.watchEarliest.Pending() {
			th.watchEarliest = d.eng.Arm(th.earliest, eventq.ClassDispatch, threadWatch{th}, earliestStart)
		}
		return
	}
	if c := th.eu.Code; c != nil {
		for _, name := range c.WaitConds {
			cv := d.cond(name)
			if !cv.set {
				th.state = threadWaitConds
				cv.waiters = append(cv.waiters, th)
				return
			}
		}
	}
	if th.eu.Inv != nil {
		d.startInv(th)
		return
	}
	if len(th.eu.Code.Resources) > 0 && !th.racSent {
		th.racSent = true
		th.inst.TR.App.notify(NotifRac, th)
	}
	if !d.tryGrant(th) {
		if th.state != threadWaitResources {
			th.state = threadWaitResources
			ns := d.node(th.Node())
			ns.waiters = append(ns.waiters, th)
		}
		if inh, ok := th.inst.TR.App.policy.(Inheritor); ok {
			inh.OnBlocked(th, d.blockers(th))
		}
		d.checkDeadlock(th)
		return
	}
	d.startCode(th)
}

// startCode hands a Code_EU to the kernel: a thread whose segments
// bookend the action body with the §4.1 start/end dispatching work at
// kernel preemption threshold, plus the out-edge crossing costs
// (C_prec_local per local edge, C_trans_data per remote edge) folded
// into the end segment — exactly where §4.1 charges them.
func (d *Dispatcher) startCode(th *Thread) {
	c := th.eu.Code
	ns := d.node(c.Node)
	endWork := d.costs.EndAction
	task := th.inst.TR.Task
	for ei, e := range task.Edges {
		if e.From != th.euIdx {
			continue
		}
		if task.IsRemote(ei) {
			endWork += d.costs.TransData
		} else {
			endWork += d.costs.PrecLocal
		}
	}
	k := &th.kt
	ns.proc.InitThread(k, unitWork{th}, th.prio)
	k.AddSegment(simkern.Segment{Work: d.costs.StartAction, PT: simkern.PrioMax}) // start
	k.AddSegment(simkern.Segment{Work: th.actual, PT: c.PT})                      // body
	k.AddSegment(simkern.Segment{Work: endWork, PT: simkern.PrioMax})             // end
	th.inKernel = true
	th.state = threadReady
	k.Ready()
}

// finishCode completes a Code_EU: apply the action's effects, release
// resources, cross outgoing precedence constraints, notify Trm, and
// close the instance when this was its last unit.
func (d *Dispatcher) finishCode(th *Thread) {
	if th.state != threadReady {
		return // orphaned while running
	}
	th.state = threadDone
	c := th.eu.Code

	if c.ActualWork != nil && th.actual < c.WCET {
		d.stats.EarlyTerminations++
		d.eng.Recordf(monitor.KindEarlyTermination, th.Node(), th.name,
			"actual=%s wcet=%s", th.actual, c.WCET)
	}
	d.eng.Cancel(th.watchLatest)

	// 1. Action effects, applied atomically at the completion instant.
	if c.Action != nil {
		c.Action(&actionCtx{d: d, th: th})
	}
	// 2. Release resources (Rre) and wake waiters.
	d.releaseResources(th)
	// 3. Cross outgoing precedence constraints.
	d.crossEdges(th)
	// 4. Trm notification.
	th.inst.TR.App.notify(NotifTrm, th)
	d.eng.Recordf(monitor.KindThreadFinish, th.Node(), th.name, "")
	// 5. Instance bookkeeping.
	d.threadFinished(th)
}

// crossEdges propagates completion along out-edges: local constraints
// transfer parameters and decrement predecessor counts directly; remote
// constraints go through the NetMsg task (netsim).
func (d *Dispatcher) crossEdges(th *Thread) {
	task := th.inst.TR.Task
	for ei, e := range task.Edges {
		if e.From != th.euIdx {
			continue
		}
		if task.IsRemote(ei) {
			d.sendRemote(th, ei)
			continue
		}
		dest := th.inst.Threads[e.To]
		dest.takeParams(th, e)
		dest.predsLeft--
		d.evaluate(dest)
	}
}

// startInv runs an Inv_EU: C_start_inv of dispatching work, the target
// activation, then C_end_inv. A synchronous invocation parks between the
// two until the invoked instance completes (§3.1). The invocation thread
// inherits the priority of the action that invoked it — the paper's
// dynamic-priority rule for avoiding priority inversion in services.
func (d *Dispatcher) startInv(th *Thread) {
	inv := th.eu.Inv
	ns := d.node(inv.Node)
	prio := d.invPriority(th)
	th.prio = prio
	k := &th.kt
	ns.proc.InitThread(k, unitWork{th}, prio)
	k.AddSegment(simkern.Segment{
		Work: d.costs.StartInv,
		PT:   simkern.PrioMax,
		OnDone: func() {
			inst, err := d.activateFrom(inv.Target, th.inputs)
			if err != nil {
				d.eng.Recordf(monitor.KindNotification, inv.Node, th.name, "invocation failed: %s", err.Error())
				return
			}
			if inv.Sync && !inst.completed {
				th.waitInst = inst
				th.state = threadWaitInstance
				inst.invoker = th // resumed by finalizeInstance
				k.Suspend()
			}
		},
	})
	k.AddSegment(simkern.Segment{Work: d.costs.EndInv, PT: simkern.PrioMax})
	th.inKernel = true
	th.state = threadReady
	k.Ready()
}

// invPriority resolves the priority an Inv_EU thread runs at: the
// highest priority among its predecessor units, falling back to the
// task's first Code_EU priority.
func (d *Dispatcher) invPriority(th *Thread) int {
	best := -1
	for _, pi := range th.inst.TR.Task.Preds(th.euIdx) {
		p := th.inst.Threads[pi]
		if p.prio > best {
			best = p.prio
		}
	}
	if best >= 0 {
		return best
	}
	for _, e := range th.inst.TR.Task.EUs {
		if e.Code != nil {
			return e.Code.Prio
		}
	}
	return 0
}

// activateFrom is Activate with parameters handed to the new instance's
// root units, used by Inv_EUs to transfer data into the invoked task.
func (d *Dispatcher) activateFrom(taskName string, params map[string]any) (*Instance, error) {
	inst, err := d.Activate(taskName)
	if err != nil {
		return nil, err
	}
	if len(params) > 0 {
		for _, root := range inst.Threads {
			if root.predsLeft == 0 {
				for k, v := range params {
					if _, exists := root.inputs[k]; !exists {
						root.setInput(k, v)
					}
				}
			}
		}
	}
	return inst, nil
}

// finishInv completes an Inv_EU thread.
func (d *Dispatcher) finishInv(th *Thread) {
	if th.state == threadOrphaned {
		return
	}
	th.state = threadDone
	d.crossEdges(th)
	d.eng.Recordf(monitor.KindThreadFinish, th.Node(), th.name, "inv")
	d.threadFinished(th)
}

// SetPriority implements the Primitive interface (§3.2.2).
func (d *Dispatcher) SetPriority(th *Thread, prio int) {
	if prio < simkern.PrioMin {
		prio = simkern.PrioMin
	}
	if prio > PrioAppMax {
		prio = PrioAppMax
	}
	if th.prio == prio {
		return
	}
	th.prio = prio
	if th.inKernel && !th.kt.Finished() {
		th.kt.SetPriority(prio)
	} else {
		d.eng.Recordf(monitor.KindPriorityChange, th.Node(), th.name, "->%d (waiting)", prio)
	}
}

// SetEarliest implements the Primitive interface (§3.2.2). Planning
// schedulers use it to serialise threads according to their plan.
//
// A thread that is already kernel-ready but has not yet received the
// CPU is pulled back and re-released at the new instant — without this,
// a plan slot could be defeated by the race between the activation
// event and the scheduler's notification processing. A thread that
// holds resources is never deferred (parking it would extend blocking
// beyond the analysed bound); one that has already started cannot be.
func (d *Dispatcher) SetEarliest(th *Thread, at vtime.Time) {
	th.earliest = at
	d.eng.Recordf(monitor.KindEarliestChange, th.Node(), th.name, "%s", at)
	d.eng.Cancel(th.watchEarliest)
	switch th.state {
	case threadWaitEarliest:
		th.state = threadWaitPreds // re-derive through evaluate
		d.evaluate(th)
	case threadReady:
		if !th.inKernel || th.kt.Started() || len(th.held) > 0 || at <= d.eng.Now() {
			return
		}
		th.kt.Suspend()
		th.state = threadWaitEarliest
		th.watchEarliest = d.eng.Arm(at, eventq.ClassDispatch, threadWatch{th}, deferredStart)
	}
}

// actionCtx implements heug.ActionContext.
type actionCtx struct {
	d  *Dispatcher
	th *Thread
}

func (a *actionCtx) Now() vtime.Time  { return a.d.eng.Now() }
func (a *actionCtx) Node() int        { return a.th.Node() }
func (a *actionCtx) Instance() uint64 { return a.th.inst.Seq }
func (a *actionCtx) TaskName() string { return a.th.TaskName() }

func (a *actionCtx) In(param string) (any, bool) {
	v, ok := a.th.inputs[param]
	return v, ok
}

func (a *actionCtx) Out(param string, value any) {
	if a.th.outputs == nil {
		a.th.outputs = make(map[string]any)
	}
	a.th.outputs[param] = value
}

func (a *actionCtx) SetCond(name string)   { a.d.setCond(name) }
func (a *actionCtx) ClearCond(name string) { a.d.clearCond(name) }

func (a *actionCtx) ResourceState(name string) any {
	r := a.d.node(a.th.Node()).resources[name]
	if r == nil {
		return nil
	}
	return r.state
}

func (a *actionCtx) SetResourceState(name string, v any) {
	a.d.resourceOn(a.th.Node(), name).state = v
}
