package dispatcher

import (
	"strconv"
	"strings"

	"hades/internal/eventq"
	"hades/internal/heug"
	"hades/internal/monitor"
	"hades/internal/simkern"
	"hades/internal/vtime"
)

// Instance is one activation of a task: the unit the dispatcher tracks
// for deadlines, completion and orphan handling.
//
// An activation of a task of up to inlineUnits units allocates:
//
//   - one block: the record, its units' Threads (each with its kernel
//     thread inline), the Threads index, and the kernel thread that
//     carries C_start_inv and later C_end_inv (the two never overlap);
//   - one string holding every name: the units' "task#seq.eu" back to
//     back, the instance's "task#seq" a prefix of the first.
//
// A task of more units gets its Threads and their index as two arrays
// of their own. Nothing else is per instance: every kernel thread is
// owned by the instance or its unit through a one-pointer adapter, a
// unit's held list is its task's, and the deadline and start watchdogs
// fire their owners from recycled event records. A remote precedence
// crossing sends the destination unit's pointer, which boxes for free.
// A unit adds what it does: its parameter maps at its first parameter.
// The gates in allocs_test.go hold a Spuri instance at 2 and a 3-stage
// pipeline crossing nodes twice at 2.
//
// A record is never reused for a later instance, so an *Instance and
// its Threads stay valid for as long as anyone holds them.
type Instance struct {
	TR  *TaskRuntime
	Seq uint64

	name string // "task#seq", a prefix of the instance's one name string

	ActivatedAt vtime.Time
	AbsDeadline vtime.Time // Infinity when the task has no deadline
	CompletedAt vtime.Time

	Threads []*Thread // parallel to TR.Task.EUs

	remaining     int
	completed     bool
	missed        bool
	cancelled     bool
	watchDeadline eventq.Handle // fires the instance as instanceWatch

	// kwork runs the instance's dispatcher activities; kworkEnd says
	// which one it carries now (C_end_inv when set).
	kworkEnd bool
	kwork    simkern.Thread
}

// inlineUnits is how many units an instance block holds: the three of
// Figure 3's Spuri chain and of a 3-stage pipeline.
const inlineUnits = 3

// instanceBlock is an instance of up to inlineUnits units in one
// allocation.
type instanceBlock struct {
	inst    Instance
	threads [inlineUnits]Thread
	index   [inlineUnits]*Thread
}

// instanceWatch is the instance as the handler of its deadline
// watchdog; one pointer wide, it converts to a Handler without
// allocating.
type instanceWatch struct{ inst *Instance }

func (w instanceWatch) Fire(uint64) { w.inst.TR.App.disp.deadlinePassed(w.inst) }

// instanceWork is the instance as the owner of its kernel-work thread,
// one pointer wide like instanceWatch.
type instanceWork struct{ inst *Instance }

func (w instanceWork) ThreadName() string {
	if w.inst.kworkEnd {
		return w.inst.name + ".endinv"
	}
	return w.inst.name + ".startinv"
}

func (w instanceWork) ThreadDone() {
	d := w.inst.TR.App.disp
	if w.inst.kworkEnd {
		d.finalizeInstance(w.inst)
	} else {
		d.releaseUnits(w.inst)
	}
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

	n := len(task.EUs)
	var inst *Instance
	var threads []Thread
	if n <= inlineUnits {
		b := new(instanceBlock)
		inst, threads = &b.inst, b.threads[:n]
		inst.Threads = b.index[:n]
	} else {
		inst, threads = new(Instance), make([]Thread, n)
		inst.Threads = make([]*Thread, n)
	}

	names, prefix := instanceNames(task, tr.seq)
	inst.TR = tr
	inst.Seq = tr.seq
	inst.name = names[:prefix]
	inst.ActivatedAt = now
	inst.AbsDeadline = vtime.Infinity
	inst.remaining = n
	if task.Deadline > 0 {
		inst.AbsDeadline = now.Add(task.Deadline)
	}
	d.live[instKey{task.Name, inst.Seq}] = inst
	d.eng.Recordf(monitor.KindActivation, tr.primaryNode(), inst.name, "D=%s", task.Deadline)

	for i, eu := range task.EUs {
		th := &threads[i]
		end := prefix + 1 + len(eu.Name)
		d.initThread(th, inst, i, eu, names[:end])
		names = names[end:]
		inst.Threads[i] = th
	}

	if inst.AbsDeadline != vtime.Infinity {
		inst.watchDeadline = d.eng.Arm(inst.AbsDeadline, eventq.ClassDispatch, instanceWatch{inst}, 0)
	}
	for _, th := range inst.Threads {
		if th.latest != vtime.Infinity {
			th.watchLatest = d.eng.Arm(th.latest, eventq.ClassDispatch, threadWatch{th}, latestStart)
		}
	}

	if d.costs.StartInv > 0 {
		d.kernelWork(inst, false, d.costs.StartInv)
	} else {
		d.releaseUnits(inst)
	}
	return inst
}

// instanceNames renders every name of instance seq of task into one
// string: the units' "task#seq.eu" back to back. The instance's own
// "task#seq" is the first prefix bytes.
func instanceNames(task *heug.Task, seq uint64) (names string, prefix int) {
	var num [20]byte
	n := strconv.AppendUint(num[:0], seq, 10)
	prefix = len(task.Name) + 1 + len(n)
	size := 0
	for _, eu := range task.EUs {
		size += prefix + 1 + len(eu.Name)
	}
	var b strings.Builder
	b.Grow(size)
	for _, eu := range task.EUs {
		b.WriteString(task.Name)
		b.WriteByte('#')
		b.Write(n)
		b.WriteByte('.')
		b.WriteString(eu.Name)
	}
	return b.String(), prefix
}

// releaseUnits sends the instance's Atv notifications (first, for
// Figure 2's ordering), then evaluates every unit.
func (d *Dispatcher) releaseUnits(inst *Instance) {
	for _, th := range inst.Threads {
		inst.TR.App.notify(NotifAtv, th)
	}
	for _, th := range inst.Threads {
		d.evaluate(th)
	}
}

// kernelWork runs one of the instance's dispatcher activities on its
// primary node at scheduler priority (non-preemptible by applications):
// C_start_inv, which then releases the units, or C_end_inv (end),
// which then finalizes the instance. Both reuse the instance's kernel
// thread, owned through instanceWork.
func (d *Dispatcher) kernelWork(inst *Instance, end bool, cost vtime.Duration) {
	inst.kworkEnd = end
	d.node(inst.TR.primaryNode()).proc.InitThread(&inst.kwork, instanceWork{inst}, PrioScheduler)
	inst.kwork.AddSegment(simkern.Segment{Work: cost, PT: simkern.PrioMax})
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
// orphan (§3.2.1's orphan-thread event) and its resources are
// reclaimed. This is the low-level fault-tolerance hook
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
		if th.inKernel && !th.kt.Finished() {
			th.kt.Suspend()
		}
		d.releaseResources(th)
		d.eng.Cancel(th.watchLatest)
		d.eng.Cancel(th.watchEarliest)
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
	d.eng.Cancel(inst.watchDeadline)
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
}
