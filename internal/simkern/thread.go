package simkern

import (
	"fmt"

	"hades/internal/monitor"
	"hades/internal/vtime"
)

// Segment is one contiguous CPU demand of a thread, with its own
// preemption threshold. The HADES dispatcher maps one Code_EU to a thread
// whose segments bookend the action body with kernel-level (pt = PrioMax)
// dispatching work, reproducing the paper's rule that kernel calls cannot
// be preempted by application tasks (§3.1.2).
type Segment struct {
	// Work is the segment's WCET on the CPU.
	Work vtime.Duration
	// PT is the preemption threshold while this segment runs: only
	// priorities strictly greater may preempt.
	PT int
	// OnDone fires when the segment's CPU demand completes.
	OnDone func()

	remaining vtime.Duration
}

// Owner is what a thread's owner implements to hook it, the way an
// eventq.Handler hooks an event: ThreadName renders the thread's name
// when it is first read, and ThreadDone fires when its last segment
// completes. An owner one pointer wide (its record, or a struct holding
// only the record's pointer) converts to an Owner without allocating,
// so a hooked thread costs nothing beyond its storage.
type Owner interface {
	ThreadName() string
	ThreadDone()
}

// Thread is a kernel-level thread. In HADES a thread executes exactly one
// Code_EU instance (§3.2.1: "a given thread being dedicated to the
// execution of one and only one Code_EU").
type Thread struct {
	proc  *Processor
	name  string
	owner Owner // names the thread when first read, hears it complete; may be nil
	prio  int

	// Segments live by value, the first three in segBuf (no caller adds
	// more before Ready), so a thread is one allocation. A *Segment
	// into segs is good until the next AddSegment: take it by index and
	// do not hold it across a callback.
	segs   []Segment
	segBuf [3]Segment
	segIdx int

	readyIdx int    // index in processor ready set, -1 when not ready
	readySeq uint64 // FIFO tie-break within a priority level

	started  bool
	finished bool
	named    bool // name rendered, or given at NewThread
	cpuTime  vtime.Duration
}

// NewThread creates a suspended thread on p with the given base priority
// and no owner. Call AddSegment then Ready to make it eligible for the
// CPU. The thread is one allocation.
func (p *Processor) NewThread(name string, prio int) *Thread {
	t := new(Thread)
	p.initThread(t, name, nil, prio)
	return t
}

// InitThread (re)initialises caller-owned storage as a suspended thread
// on p, hooked to o: o names it when its name is first read and hears
// it complete. A caller that runs one short thread per event keeps the
// Thread in its record and allocates nothing per thread; a monitor
// record the log refuses never renders the name. t must not be ready
// or running.
func (p *Processor) InitThread(t *Thread, o Owner, prio int) {
	p.initThread(t, "", o, prio)
}

// retired stands in as a processor's last dispatch for a thread whose
// storage InitThread reused. It is never dispatched, so it equals no
// live thread, and it is non-nil like the thread it replaces.
var retired Thread

// initThread is the one thread initialiser. Reused storage must still
// count as a different thread for switch costing: a processor whose
// last dispatch was the old thread now remembers the retired sentinel.
func (p *Processor) initThread(t *Thread, name string, o Owner, prio int) {
	if old := t.proc; old != nil && old.lastDispatch == t {
		old.lastDispatch = &retired
	}
	// A thread with no owner keeps the name it was given.
	*t = Thread{proc: p, name: name, owner: o, named: o == nil, prio: prio, readyIdx: -1}
	t.segs = t.segBuf[:0]
	if prio < PrioMin || prio > PrioMax {
		panic(fmt.Sprintf("simkern: priority %d out of range for thread %q", prio, t.renderName()))
	}
}

// renderName returns the thread's name, rendering a lazy one once.
func (t *Thread) renderName() string {
	if !t.named {
		t.name, t.named = t.owner.ThreadName(), true
	}
	return t.name
}

// record writes one thread event. A lazily named thread renders its
// name only for a record the log keeps; every record still reaches
// Recordf, so a refused one is counted as before.
func (t *Thread) record(kind monitor.Kind, format string, args ...any) {
	name := t.name
	if !t.named && t.proc.eng.log.Keeps(kind) {
		name = t.renderName()
	}
	t.proc.eng.Recordf(kind, t.proc.id, name, format, args...)
}

// Finished reports whether all segments have completed.
func (t *Thread) Finished() bool { return t.finished }

// Started reports whether the thread has ever held the CPU.
func (t *Thread) Started() bool { return t.started }

// AddSegment appends a CPU demand to the thread. Must not be called after
// the thread finished.
func (t *Thread) AddSegment(s Segment) *Thread {
	if t.finished {
		panic(fmt.Sprintf("simkern: adding segment to finished thread %q", t.renderName()))
	}
	if s.Work < 0 {
		panic(fmt.Sprintf("simkern: negative segment work for thread %q", t.renderName()))
	}
	s.remaining = s.Work
	t.segs = append(t.segs, s)
	return t
}

// Ready makes the thread eligible for the CPU. The HADES dispatcher calls
// this once the four runnable conditions of §3.2.1 hold.
func (t *Thread) Ready() {
	if t.finished {
		panic(fmt.Sprintf("simkern: readying finished thread %q", t.renderName()))
	}
	if t.currentSegment() == nil {
		panic(fmt.Sprintf("simkern: readying thread %q with no segments", t.renderName()))
	}
	t.record(monitor.KindThreadReady, "prio=%d", t.prio)
	t.proc.makeReady(t)
}

// Suspend removes the thread from the ready set (and from the CPU if it
// was running), preserving its remaining work.
func (t *Thread) Suspend() {
	t.proc.removeReady(t)
}

// SetPriority changes the thread's priority. This is the kernel half of
// the dispatcher primitive of §3.2.2; it triggers an immediate
// rescheduling pass.
func (t *Thread) SetPriority(prio int) {
	if prio < PrioMin || prio > PrioMax {
		panic(fmt.Sprintf("simkern: priority %d out of range for thread %q", prio, t.renderName()))
	}
	if t.prio == prio {
		return
	}
	t.record(monitor.KindPriorityChange, "%d->%d", t.prio, prio)
	t.prio = prio
	if t.readyIdx >= 0 {
		t.proc.resched()
	}
}

// remainingWork sums the remaining CPU demand over all segments.
func (t *Thread) remainingWork() vtime.Duration {
	var sum vtime.Duration
	for i := t.segIdx; i < len(t.segs); i++ {
		sum += t.segs[i].remaining
	}
	return sum
}

// currentSegment returns the segment in progress, or nil when done.
func (t *Thread) currentSegment() *Segment {
	if t.segIdx >= len(t.segs) {
		return nil
	}
	return &t.segs[t.segIdx]
}

// currentPT returns the preemption threshold in effect: the segment's
// declared threshold, but never below the thread's current priority (a
// thread cannot be preempted by priorities it outranks). Computing this
// dynamically keeps thresholds consistent when a scheduler lowers a
// running thread's priority (Figure 2).
func (t *Thread) currentPT() int {
	seg := t.currentSegment()
	if seg == nil || seg.PT < t.prio {
		return t.prio
	}
	return seg.PT
}

// effPrio is the thread's effective priority for dispatching: plain
// priority before it first runs, its current threshold afterwards (the
// dual-priority semantics of preemption thresholds).
func (t *Thread) effPrio() int {
	if t.started {
		return t.currentPT()
	}
	return t.prio
}
