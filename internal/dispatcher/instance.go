package dispatcher

import (
	"strconv"

	"hades/internal/eventq"
	"hades/internal/monitor"
	"hades/internal/simkern"
	"hades/internal/vtime"
)

// Instance is one activation of a task: the unit the dispatcher tracks
// for deadlines, completion and orphan handling.
//
// An instance owns what its activation needs and allocates it once: one
// array holding its units' threads, and one kernel thread that carries
// C_start_inv and later C_end_inv (the two never overlap), named and
// hooked once. A unit's parameter maps are made at its first parameter.
type Instance struct {
	TR  *TaskRuntime
	Seq uint64

	name string // "task#seq", rendered once

	ActivatedAt vtime.Time
	AbsDeadline vtime.Time // Infinity when the task has no deadline
	CompletedAt vtime.Time

	Threads []*Thread // parallel to TR.Task.EUs, into one array

	remaining  int
	completed  bool
	missed     bool
	cancelled  bool
	deadlineEv *eventq.Event
	onComplete []func(*Instance)

	// kwork runs the instance's dispatcher activities; kworkEnd says
	// which one it carries now (C_end_inv when set).
	kwork     simkern.Thread
	kworkEnd  bool
	kworkName func() string
	kworkDone func()
}

// whenComplete registers a callback fired when the instance completes
// (successfully or cancelled). Fired immediately if already complete.
func (in *Instance) whenComplete(f func(*Instance)) {
	if in.completed {
		f(in)
		return
	}
	in.onComplete = append(in.onComplete, f)
}

// buildInstance creates the instance, its threads, the deadline and
// latest-start monitors, charges C_start_inv, and releases the root
// units. Notifications (Atv) are enqueued before any unit can run so
// that a dynamic scheduler processes the activation first — its thread
// outranks every application thread, reproducing Figure 2's ordering.
func (d *Dispatcher) buildInstance(tr *TaskRuntime) *Instance {
	now := d.eng.Now()
	tr.seq++
	tr.Activations++
	d.stats.Activations++
	task := tr.Task

	var buf [64]byte
	name := strconv.AppendUint(append(append(buf[:0], task.Name...), '#'), tr.seq, 10)
	inst := &Instance{
		TR:          tr,
		Seq:         tr.seq,
		name:        string(name),
		ActivatedAt: now,
		AbsDeadline: vtime.Infinity,
		remaining:   len(task.EUs),
	}
	if task.Deadline > 0 {
		inst.AbsDeadline = now.Add(task.Deadline)
	}
	d.live[instKey{task.Name, inst.Seq}] = inst
	d.eng.Recordf(monitor.KindActivation, tr.primaryNode(), inst.name, "D=%s", task.Deadline)

	threads := make([]Thread, len(task.EUs))
	inst.Threads = make([]*Thread, len(task.EUs))
	for i, eu := range task.EUs {
		th := &threads[i]
		d.initThread(th, inst, i, eu)
		inst.Threads[i] = th
	}

	if inst.AbsDeadline != vtime.Infinity {
		inst.deadlineEv = d.eng.Timer(inst.AbsDeadline, eventq.ClassDispatch, func() {
			inst.deadlineEv = nil
			d.deadlinePassed(inst)
		})
	}
	for _, th := range inst.Threads {
		if th.latest != vtime.Infinity {
			t := th
			t.latestEv = d.eng.Timer(t.latest, eventq.ClassDispatch, func() {
				t.latestEv = nil
				if !t.started() && t.state != threadDone && t.state != threadOrphaned {
					d.stats.LatestMisses++
					d.eng.Recordf(monitor.KindLatestStartMiss, t.Node(), t.name, "latest=%s", t.latest)
				}
			})
		}
	}

	if d.costs.StartInv > 0 {
		d.kernelWork(inst, false, d.costs.StartInv)
	} else {
		d.releaseUnits(inst)
	}
	return inst
}

// releaseUnits sends the instance's Atv notifications (first, for
// Figure 2's ordering), then evaluates every unit.
func (d *Dispatcher) releaseUnits(inst *Instance) {
	for _, th := range inst.Threads {
		if th.eu.IsCode() {
			inst.TR.App.notify(NotifAtv, th)
		}
	}
	for _, th := range inst.Threads {
		d.evaluate(th)
	}
}

// kernelWork runs one of the instance's dispatcher activities on its
// primary node at scheduler priority (non-preemptible by applications):
// C_start_inv, which then releases the units, or C_end_inv (end),
// which then finalizes the instance. Both reuse the instance's kernel
// thread and the hooks bound on first use.
func (d *Dispatcher) kernelWork(inst *Instance, end bool, cost vtime.Duration) {
	if inst.kworkDone == nil {
		inst.kworkName = func() string {
			if inst.kworkEnd {
				return inst.name + ".endinv"
			}
			return inst.name + ".startinv"
		}
		inst.kworkDone = func() {
			if inst.kworkEnd {
				d.finalizeInstance(inst)
			} else {
				d.releaseUnits(inst)
			}
		}
	}
	inst.kworkEnd = end
	d.node(inst.TR.primaryNode()).proc.InitThread(&inst.kwork, inst.kworkName, PrioScheduler)
	inst.kwork.AddSegment(simkern.Segment{Work: cost, PT: simkern.PrioMax})
	inst.kwork.OnComplete = inst.kworkDone
	inst.kwork.Ready()
}

// deadlinePassed fires at an instance's absolute deadline.
func (d *Dispatcher) deadlinePassed(inst *Instance) {
	if inst.completed || inst.missed {
		return
	}
	inst.missed = true
	inst.TR.Misses++
	d.stats.DeadlineMisses++
	d.eng.Recordf(monitor.KindDeadlineMiss, inst.TR.primaryNode(), inst.name,
		"deadline=%s", inst.AbsDeadline)
	if d.CancelOnMiss {
		d.cancelInstance(inst, "deadline miss")
	}
}

// cancelInstance aborts the instance: every unfinished thread becomes an
// orphan (§3.2.1's orphan-thread event), its resources are reclaimed and
// sync invokers are resumed. This is the low-level fault-tolerance hook
// the paper attributes to the dispatcher ("switching of modes of
// operation in case of failure").
func (d *Dispatcher) cancelInstance(inst *Instance, reason string) {
	if inst.completed || inst.cancelled {
		return
	}
	inst.cancelled = true
	for _, th := range inst.Threads {
		if th.state == threadDone {
			continue
		}
		th.state = threadOrphaned
		d.stats.Orphans++
		d.eng.Recordf(monitor.KindOrphanThread, th.Node(), th.name, "%s", reason)
		if th.kthread != nil && !th.kthread.Finished() {
			th.kthread.Suspend()
		}
		d.releaseResources(th)
		if th.latestEv != nil {
			d.eng.Cancel(th.latestEv)
			th.latestEv = nil
		}
		if th.earliestEv != nil {
			d.eng.Cancel(th.earliestEv)
			th.earliestEv = nil
		}
	}
	d.finalizeInstance(inst)
}

// CancelLive aborts every live instance of the named task, orphaning
// their threads (used by operational mode switches, §3.2.1). It returns
// the number of instances aborted.
func (d *Dispatcher) CancelLive(taskName string, reason string) int {
	var doomed []*Instance
	for k, inst := range d.live {
		if k.task == taskName {
			doomed = append(doomed, inst)
		}
	}
	// Deterministic order despite map iteration.
	for i := 1; i < len(doomed); i++ {
		for j := i; j > 0 && doomed[j].Seq < doomed[j-1].Seq; j-- {
			doomed[j], doomed[j-1] = doomed[j-1], doomed[j]
		}
	}
	for _, inst := range doomed {
		d.cancelInstance(inst, reason)
	}
	return len(doomed)
}

// threadFinished is common bookkeeping after any thread completes.
func (d *Dispatcher) threadFinished(th *Thread) {
	inst := th.inst
	inst.remaining--
	if inst.remaining == 0 && !inst.completed && !inst.cancelled {
		if d.costs.EndInv > 0 {
			d.kernelWork(inst, true, d.costs.EndInv)
		} else {
			d.finalizeInstance(inst)
		}
	}
}

// finalizeInstance closes the books on an instance.
func (d *Dispatcher) finalizeInstance(inst *Instance) {
	if inst.completed {
		return
	}
	inst.completed = true
	inst.CompletedAt = d.eng.Now()
	if inst.deadlineEv != nil {
		d.eng.Cancel(inst.deadlineEv)
		inst.deadlineEv = nil
	}
	delete(d.live, instKey{inst.TR.Task.Name, inst.Seq})
	if !inst.cancelled {
		tr := inst.TR
		tr.Completions++
		d.stats.Completions++
		resp := inst.CompletedAt.Sub(inst.ActivatedAt)
		tr.sumResponse += resp
		if resp > tr.MaxResponse {
			tr.MaxResponse = resp
		}
		// A completion after the deadline that the deadline timer
		// already flagged is not double-counted.
		d.eng.Recordf(monitor.KindTaskComplete, tr.primaryNode(), inst.name, "resp=%s", resp)
	}
	cbs := inst.onComplete
	inst.onComplete = nil
	for _, f := range cbs {
		f(inst)
	}
}
