package simkern

import (
	"fmt"

	"hades/internal/eventq"
	"hades/internal/monitor"
	"hades/internal/vtime"
)

// Processor is one mono-processor node of the simulated COTS hardware
// ("network of mono processor machines", §2.2.1). It runs at most one
// thread or interrupt handler at a time, chosen by preemptive priority
// scheduling with preemption thresholds.
type Processor struct {
	eng  *Engine
	id   int
	name string

	ready   []*Thread // threads eligible for CPU, unordered; scanned deterministically
	running *Thread
	// effStart is when the running thread's current segment began making
	// progress (after any context-switch cost). If the segment is
	// preempted before effStart, it made no progress.
	effStart     vtime.Time
	completion   eventq.Handle // the running segment's end, armed as a kernelEvent
	completing   *Thread       // whose segment the pending completion ends
	lastDispatch *Thread       // previously running thread, to decide switch cost

	// Pending interrupts are irqs[irqHead:], by value; a popped slot is
	// zeroed so the queue does not keep its handler (and the message it
	// carries) reachable, and a drained queue starts over at 0.
	irqs    []irq
	irqHead int
	inIRQ   bool
	serving irq // the interrupt in service
	// irqHalted remembers the thread an interrupt displaced: after the
	// drain it resumes unless a ready thread exceeds its preemption
	// threshold — an interrupt must not defeat threshold semantics.
	irqHalted *Thread

	switchCost vtime.Duration

	// Accounting for experiment E-T2 and utilisation reports.
	busyTime   vtime.Duration
	irqTime    vtime.Duration
	switchTime vtime.Duration
	switches   int
	preempts   int
	irqStats   map[string]*IRQStats

	// Periodic clock tick (the §4.2 clock interrupt).
	ticks                uint64
	tickPeriod, tickWCET vtime.Duration
}

// kernelEvent is the processor as the handler of its own kernel
// events, told apart by payload; one pointer wide, it converts to a
// Handler without allocating.
type kernelEvent struct{ p *Processor }

// The processor's kernel events, by payload.
const (
	segmentEnd  uint64 = iota // the running segment's CPU demand is met
	irqEnd                    // the interrupt in service ends its handler
	tickArrive                // the clock interrupt arrives
	tickHandled               // the clock interrupt's handler has run
)

func (k kernelEvent) Fire(ev uint64) {
	switch p := k.p; ev {
	case segmentEnd:
		p.segmentDone()
	case irqEnd:
		p.irqDone()
	case tickArrive:
		p.RaiseIRQ("clock", p.tickWCET, k, tickHandled)
		p.eng.Arm(p.eng.now.Add(p.tickPeriod), eventq.ClassInterrupt, k, tickArrive)
	case tickHandled:
		p.ticks++
	}
}

// irq is one interrupt: its handler's WCET, and the hook fired, with
// its payload, when the handler's CPU segment completes (nil: none).
type irq struct {
	wcet vtime.Duration
	h    eventq.Handler
	n    uint64
}

// IRQStats aggregates interrupt handling per source, reproducing the §4.2
// characterisation (WCET and observed pseudo-period of each interrupt).
type IRQStats struct {
	Count      int
	Total      vtime.Duration
	MaxWCET    vtime.Duration
	LastAt     vtime.Time
	MinGap     vtime.Duration // smallest observed inter-arrival gap (pseudo-period)
	haveArrive bool
}

// AddProcessor registers a new processor with the given context-switch
// cost and returns it.
func (e *Engine) AddProcessor(name string, switchCost vtime.Duration) *Processor {
	p := &Processor{
		eng:        e,
		id:         len(e.procs),
		name:       name,
		switchCost: switchCost,
		irqStats:   make(map[string]*IRQStats),
	}
	e.procs = append(e.procs, p)
	return p
}

// ID returns the processor's index within the engine.
func (p *Processor) ID() int { return p.id }

// BusyTime returns the cumulative CPU time consumed by thread segments.
func (p *Processor) BusyTime() vtime.Duration { return p.busyTime }

// IRQTime returns the cumulative CPU time consumed by interrupt handlers.
func (p *Processor) IRQTime() vtime.Duration { return p.irqTime }

// SwitchTime returns the cumulative CPU time lost to context switches.
func (p *Processor) SwitchTime() vtime.Duration { return p.switchTime }

// Switches returns the number of context switches performed.
func (p *Processor) Switches() int { return p.switches }

// Preemptions returns the number of preemptions performed.
func (p *Processor) Preemptions() int { return p.preempts }

// IRQBySource returns interrupt statistics per source name. The map is
// the live map; callers must not mutate it.
func (p *Processor) IRQBySource() map[string]*IRQStats { return p.irqStats }

// StartClockTick installs the processor's periodic clock interrupt of
// §4.2 (period P_clk, handler WCET w_clk). The first tick fires one
// period from now.
func (p *Processor) StartClockTick(period, wcet vtime.Duration) {
	if period <= 0 || p.tickPeriod > 0 {
		panic("simkern: clock tick period must be positive, and set once")
	}
	p.tickPeriod, p.tickWCET = period, wcet
	p.eng.Arm(p.eng.now.Add(period), eventq.ClassInterrupt, kernelEvent{p}, tickArrive)
}

// RaiseIRQ queues an interrupt from the named source with the given
// handler WCET. h.Fire(n) runs when the handler's CPU segment completes
// (a nil h: nothing does). Interrupts preempt any thread, regardless of
// preemption thresholds, reproducing the paper's prio_max kernel
// activities.
func (p *Processor) RaiseIRQ(source string, wcet vtime.Duration, h eventq.Handler, n uint64) {
	if wcet < 0 {
		panic("simkern: negative IRQ WCET")
	}
	st := p.irqStats[source]
	if st == nil {
		st = &IRQStats{MinGap: vtime.Forever}
		p.irqStats[source] = st
	}
	now := p.eng.now
	if st.haveArrive {
		if gap := now.Sub(st.LastAt); gap < st.MinGap {
			st.MinGap = gap
		}
	}
	st.haveArrive = true
	st.LastAt = now
	st.Count++
	st.Total += wcet
	if wcet > st.MaxWCET {
		st.MaxWCET = wcet
	}
	p.eng.Recordf(monitor.KindInterrupt, p.id, source, "%s", wcet)
	p.irqs = append(p.irqs, irq{wcet, h, n})
	p.resched()
}

// makeReady inserts t into the ready set and reschedules.
func (p *Processor) makeReady(t *Thread) {
	if t.readyIdx >= 0 {
		return
	}
	t.readySeq = p.eng.nextReadySeq()
	t.readyIdx = len(p.ready)
	p.ready = append(p.ready, t)
	p.resched()
}

// removeReady takes t out of the ready set (suspension or completion).
func (p *Processor) removeReady(t *Thread) {
	if t.readyIdx < 0 {
		return
	}
	p.removeReadyNoResched(t)
	if p.running == t {
		p.haltRunning(false)
	}
	p.resched()
}

// pickBest returns the ready thread with the highest *effective*
// priority, FIFO within a level. A started thread's effective priority
// is its current segment's preemption threshold (the dual-priority
// model behind §3.1.2's pt attribute): once a job begins, nothing at or
// below its threshold may take the CPU from it — not even indirectly,
// by slipping in while an interrupt or kernel activity had it off the
// CPU. Unstarted threads compete with their plain priority.
func (p *Processor) pickBest() *Thread {
	var best *Thread
	for _, t := range p.ready {
		if best == nil || t.effPrio() > best.effPrio() ||
			(t.effPrio() == best.effPrio() && t.readySeq < best.readySeq) {
			best = t
		}
	}
	return best
}

// haltRunning stops the running thread's segment, accruing its progress.
// If preempt is true the stop is a preemption (the thread stays ready).
func (p *Processor) haltRunning(preempt bool) {
	t := p.running
	if t == nil {
		return
	}
	p.eng.Cancel(p.completion)
	now := p.eng.now
	if now > p.effStart {
		progress := now.Sub(p.effStart)
		seg := t.currentSegment()
		if seg != nil {
			if progress > seg.remaining {
				progress = seg.remaining
			}
			seg.remaining -= progress
			p.busyTime += progress
			t.cpuTime += progress
		}
	}
	p.running = nil
	p.lastDispatch = t
	if preempt {
		p.preempts++
		t.record(monitor.KindThreadPreempt, "")
	}
}

// resched is the kernel scheduling decision point: run pending interrupts
// first, then the best ready thread subject to the preemption-threshold
// rule of §3.2.1. A thread displaced by an interrupt retains its
// threshold across the drain: it resumes unless a ready thread's
// priority exceeds it.
func (p *Processor) resched() {
	if p.inIRQ {
		return // decision deferred until the IRQ drain completes
	}
	if p.irqHead < len(p.irqs) {
		if p.running != nil && p.irqHalted == nil {
			p.irqHalted = p.running
		}
		p.haltRunning(false)
		p.startIRQ()
		return
	}
	if h := p.irqHalted; h != nil {
		p.irqHalted = nil
		if h.readyIdx >= 0 && !h.finished {
			best := p.pickBest()
			if best != nil && best != h && best.effPrio() > h.currentPT() {
				p.preempts++
				h.record(monitor.KindThreadPreempt, "")
				p.dispatch(best)
			} else {
				p.dispatch(h)
			}
			return
		}
	}
	best := p.pickBest()
	if p.running != nil {
		if best == nil || best == p.running {
			return
		}
		// Preemption-threshold rule: a runnable thread preempts the
		// running one only if its effective priority exceeds the
		// running segment's preemption threshold.
		if best.effPrio() > p.running.currentPT() {
			p.haltRunning(true)
			p.dispatch(best)
		}
		return
	}
	if best != nil {
		p.dispatch(best)
	}
}

// dispatch gives the CPU to t, charging the context-switch cost when the
// CPU last ran a different thread.
func (p *Processor) dispatch(t *Thread) {
	seg := t.currentSegment()
	if seg == nil {
		panic(fmt.Sprintf("simkern: dispatching thread %q with no segments", t.renderName()))
	}
	now := p.eng.now
	var cost vtime.Duration
	if p.lastDispatch != t {
		cost = p.switchCost
		p.switches++
		p.switchTime += cost
		if p.lastDispatch != nil || cost > 0 {
			t.record(monitor.KindContextSwitch, "%s", cost)
		}
	}
	p.running = t
	p.effStart = now.Add(cost)
	if !t.started {
		t.started = true
		t.record(monitor.KindThreadStart, "prio=%d", t.prio)
	} else if cost > 0 || p.lastDispatch != t {
		// Continuing the same thread straight after an interrupt is
		// not a context switch and gets no Resume event.
		t.record(monitor.KindThreadResume, "")
	}
	p.armCompletion(t, seg.remaining)
}

// armCompletion schedules the end of t's current segment, remaining
// from effStart.
func (p *Processor) armCompletion(t *Thread, remaining vtime.Duration) {
	p.completing = t
	p.completion = p.eng.Arm(p.effStart.Add(remaining), eventq.ClassKernel, kernelEvent{p}, segmentEnd)
}

// segmentDone fires when the running thread finishes its current segment.
func (p *Processor) segmentDone() {
	t := p.completing
	if p.running != t {
		panic("simkern: segment completion for non-running thread")
	}
	seg := t.currentSegment()
	p.busyTime += seg.remaining
	t.cpuTime += seg.remaining
	seg.remaining = 0
	cb := seg.OnDone
	t.segIdx++
	if t.currentSegment() == nil {
		// Thread finished all work.
		p.running = nil
		p.lastDispatch = t
		p.removeReadyNoResched(t)
		t.finished = true
		if cb != nil {
			cb()
		}
		if t.owner != nil {
			t.owner.ThreadDone()
		}
		p.resched()
		return
	}
	// Continue with the next segment of the same thread: no switch cost,
	// but reschedule since the threshold may have dropped.
	// effStart is reset first so that a halt from inside the callback
	// accrues zero progress against the new segment.
	p.effStart = p.eng.now
	if cb != nil {
		cb()
	}
	if p.running == t { // callback may have suspended t
		p.effStart = p.eng.now
		p.armCompletion(t, t.currentSegment().remaining)
		p.resched()
	}
}

// removeReadyNoResched removes t from the ready set without triggering a
// scheduling pass (removeReady's unlink, and completion's, where resched
// follows explicitly).
func (p *Processor) removeReadyNoResched(t *Thread) {
	if t.readyIdx < 0 {
		return
	}
	i := t.readyIdx
	last := len(p.ready) - 1
	p.ready[i] = p.ready[last]
	p.ready[i].readyIdx = i
	p.ready = p.ready[:last]
	t.readyIdx = -1
}

// startIRQ begins executing the oldest pending interrupt.
func (p *Processor) startIRQ() {
	q := p.irqs[p.irqHead]
	p.irqs[p.irqHead] = irq{}
	if p.irqHead++; p.irqHead == len(p.irqs) {
		p.irqs, p.irqHead = p.irqs[:0], 0
	}
	p.inIRQ = true
	p.irqTime += q.wcet
	p.serving = q
	p.eng.Arm(p.eng.now.Add(q.wcet), eventq.ClassKernel, kernelEvent{p}, irqEnd)
}

// irqDone fires when the interrupt in service finishes its CPU segment.
func (p *Processor) irqDone() {
	p.inIRQ = false
	if q := p.serving; q.h != nil {
		p.serving = irq{}
		q.h.Fire(q.n)
	}
	// lastDispatch is preserved: resuming the interrupted thread
	// costs a switch only if a different thread is chosen.
	p.resched()
}
