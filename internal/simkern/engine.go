// Package simkern is the simulated COTS real-time kernel that HADES runs
// on, substituting for the ChorusR3 kernel of the paper's prototype.
//
// The paper requires only "standard process management mechanisms
// (priority-based preemptive scheduling, interprocess synchronization,
// separate address spaces) and a predictable behavior" from the underlying
// kernel (§2.2.1). This package provides exactly that surface over a
// deterministic discrete-event engine:
//
//   - a virtual clock and event queue (predictability becomes determinism:
//     a run is a pure function of its inputs and seed). Every door draws
//     its record from the queue's free list and recycles it once the
//     event fires: At/After/AfterTo are fire-and-forget (AtSlot too, at
//     a place Slot took earlier, for a chain whose events each schedule
//     the next); Arm fires an owner and returns the handle Cancel takes.
//     A handle checks the seq its event was pushed at, so it may be
//     kept, and cancelled, long after the event fired and its record
//     went on to another event;
//   - mono-processor nodes with preemptive priority scheduling and
//     preemption thresholds (§3.1.2);
//   - threads made of segments, each with its own preemption threshold, so
//     that kernel calls can run with pt = PrioMax as the paper mandates;
//     two thread doors: NewThread allocates one object, named at once;
//     InitThread reinitialises caller-owned storage hooked to an Owner,
//     which names the thread only for a record the log keeps and hears
//     it complete — a per-message thread kept in a recycled record, or
//     a unit's kept in its instance, costs nothing;
//   - interrupt sources (periodic clock tick, sporadic device interrupts)
//     that preempt all threads, matching §4.2's background kernel
//     activities;
//   - context-switch cost charging on the CPU timeline, so measured
//     schedules and the feasibility tests of §5.3 account the same events.
package simkern

import (
	"fmt"
	"math/rand"

	"hades/internal/eventq"
	"hades/internal/metrics"
	"hades/internal/monitor"
	"hades/internal/trace"
	"hades/internal/vtime"
)

// Priority levels. Higher values are more urgent. PrioMax is reserved for
// kernel mechanisms per §3.1.2 ("The higher priority level prio_max is
// reserved for kernel mechanisms"); interrupts run above every thread.
const (
	// PrioMin is the lowest priority an application thread may use.
	PrioMin = 0
	// PrioMax is the kernel priority level: segments with pt = PrioMax
	// cannot be preempted by any thread, only by interrupts.
	PrioMax = 1 << 20
)

// Engine is the discrete-event core: one virtual clock and event queue
// shared by every processor and device of a run. It is not safe for
// concurrent use; a run is single-threaded by design.
type Engine struct {
	now     vtime.Time
	queue   eventq.Queue
	log     *monitor.Log
	rand    *rand.Rand
	tracer  *trace.Tracer
	metrics *metrics.Registry
	procs   []*Processor

	running  bool
	fired    uint64
	readySeq uint64
}

// NewEngine returns an engine with the given trace log (may be nil) and
// deterministic seed.
func NewEngine(log *monitor.Log, seed int64) *Engine {
	return &Engine{log: log, rand: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Engine) Now() vtime.Time { return e.now }

// Log returns the engine's trace log (may be nil).
func (e *Engine) Log() *monitor.Log { return e.log }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rand }

// SetTracer attaches the causal tracing plane. The tracer is passive
// (it never schedules events or consumes Rand), so attaching one does
// not change a run's behaviour.
func (e *Engine) SetTracer(t *trace.Tracer) { e.tracer = t }

// Tracer returns the attached tracer; nil (a valid disabled tracer)
// when tracing is off.
func (e *Engine) Tracer() *trace.Tracer { return e.tracer }

// SetMetrics attaches the virtual-time metrics plane. Like the
// tracer, the registry is passive — its scrape events read instrument
// state without mutating the simulation or consuming Rand — so
// attaching one does not change a run's behaviour.
func (e *Engine) SetMetrics(r *metrics.Registry) { e.metrics = r }

// Metrics returns the attached metrics registry; nil (a valid
// disabled registry handing out no-op instruments) when metrics are
// off.
func (e *Engine) Metrics() *metrics.Registry { return e.metrics }

// QueueLen returns the number of live events in the queue (the
// eventq-depth signal the metrics plane samples).
func (e *Engine) QueueLen() int { return e.queue.Len() }

// Processors returns the registered processors in creation order.
func (e *Engine) Processors() []*Processor { return e.procs }

// At schedules fn at absolute instant t, fire and forget: there is no
// handle, so the event's record can be recycled the moment fn returns
// and the steady state allocates nothing per event. Scheduling in the
// past panics: in a predictable system causality violations are
// programming errors.
func (e *Engine) At(t vtime.Time, class eventq.Class, fn func()) {
	e.checkNotPast(t)
	e.queue.PushRecycled(t, class, fn)
}

// After schedules fn d from now, fire and forget like At.
func (e *Engine) After(d vtime.Duration, class eventq.Class, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("simkern: negative delay %s", d))
	}
	e.queue.PushRecycled(e.now.Add(d), class, fn)
}

// AfterTo schedules h.Fire(n) d from now, fire and forget like After.
// An owner that passes itself as h, with the payload telling its
// firings apart, schedules without allocating a closure.
func (e *Engine) AfterTo(d vtime.Duration, class eventq.Class, h eventq.Handler, n uint64) {
	if d < 0 {
		panic(fmt.Sprintf("simkern: negative delay %s", d))
	}
	e.queue.PushRecycledTo(e.now.Add(d), class, h, n)
}

// Slot takes a place in the event order now for a chain scheduled
// later with AtSlot, each event by its predecessor: the chain sorts
// against every other event as if all of it had been pushed here.
func (e *Engine) Slot() eventq.Slot { return e.queue.Slot() }

// AtSlot is At at slot s: fire and forget, no allocation. The chain's
// instants must strictly increase (see eventq.Queue.PushSlot).
func (e *Engine) AtSlot(s eventq.Slot, t vtime.Time, class eventq.Class, fn func()) {
	e.checkNotPast(t)
	e.queue.PushSlot(s, t, class, fn)
}

// Arm schedules h.Fire(n) at absolute instant t, on a recycled record
// like AfterTo, and returns the handle Cancel takes: the cancellable
// door (a watchdog, a segment completion). Cancelling after the event
// fired is a no-op however late, even once its record carries another
// event, so the holder never has to drop the handle.
func (e *Engine) Arm(t vtime.Time, class eventq.Class, h eventq.Handler, n uint64) eventq.Handle {
	e.checkNotPast(t)
	return e.queue.PushRecycledTo(t, class, h, n)
}

func (e *Engine) checkNotPast(t vtime.Time) {
	if t < e.now {
		panic(fmt.Sprintf("simkern: scheduling event in the past (%s < %s)", t, e.now))
	}
}

// Cancel cancels an armed event if it is still pending.
func (e *Engine) Cancel(h eventq.Handle) { e.queue.CancelHandle(h) }

// EventsFired returns the total number of events processed so far.
func (e *Engine) EventsFired() uint64 { return e.fired }

// Run processes events until the queue is exhausted or the virtual clock
// would pass until. It returns the time at which it stopped.
func (e *Engine) Run(until vtime.Time) vtime.Time {
	if e.running {
		panic("simkern: re-entrant Run")
	}
	e.running = true
	defer func() { e.running = false }()
	for {
		ev := e.queue.PopUntil(until)
		if ev == nil {
			if e.queue.Len() > 0 {
				e.now = until
			}
			return e.now
		}
		e.now = ev.At
		e.fired++
		ev.Run()
		e.queue.Release(ev)
	}
}

// RunUntilIdle processes events until none remain.
func (e *Engine) RunUntilIdle() vtime.Time { return e.Run(vtime.Infinity) }

// nextReadySeq hands out FIFO tie-break sequence numbers for ready queues.
func (e *Engine) nextReadySeq() uint64 {
	e.readySeq++
	return e.readySeq
}

// Recordf is the one write door into the monitor log: it stamps the
// event with the current instant and formats the detail only if the
// log will keep it. A nil log records nothing.
func (e *Engine) Recordf(kind monitor.Kind, node int, subject, format string, args ...any) {
	e.log.Recordf(e.now, kind, node, subject, format, args...)
}
