// Package eventq provides the deterministic event queue at the heart of
// the HADES discrete-event engine.
//
// Determinism matters more here than in a typical simulator: the paper's
// predictability argument ("an action is predictable if its results and
// its duration can be foreseen before it is executed", §2.2.2) is
// reproduced as the property that a run is a pure function of its inputs.
// Events at equal instants are therefore ordered by an explicit class
// (interrupts before dispatching before application work) and then by
// insertion sequence, never by map iteration or goroutine scheduling.
//
// An event's record names what fires as a handler and a payload: Run
// calls h.Fire(n). An owner that schedules the same kind of event
// over and over (a call's reply timeout, a lane's flush timer) passes
// itself as the Handler and the one number that tells its firings
// apart (the attempt, the epoch) as the payload, so scheduling it
// allocates nothing. Func is the one closure adapter: a func value is
// pointer-shaped, so converting it to a Handler allocates nothing
// either, and Run is the one firing path.
//
// There is one door in for a program: PushRecycledTo (and PushSlot,
// its form for chains) draws the record from the queue's free list,
// and Release puts it back once the event has fired (a cancelled one
// is put back when its dead slot is reclaimed). The steady state then
// allocates nothing per event. It returns a Handle: the record and the
// seq it was pushed at. A non-slot push stamps a seq no other push
// shares, so CancelHandle on a handle whose record has fired, been
// released or been reused by another event finds a different seq, or a
// record out of the heap, and does nothing. A holder keeps its handle
// as long as it likes; cancelling after fire is a no-op however late.
//
// Push and Cancel, a record per event that is never reused and is its
// own handle, stay for the benchmark's queue driver and the queue's
// tests. Both doors draw seq from the same counter, so mixing them
// does not disturb the (At, Class, seq) order.
//
// A chain of events, each scheduled by its predecessor, can keep the
// place a full layout would have had: Slot takes one seq now, and
// PushSlot pushes a recycled record at that seq later. An eager layout
// of the chain made at slot time would have taken consecutive seqs
// from that point on, so every other event sorts on the same side of
// each chain event as it would have there, as long as the chain's
// instants strictly increase and so never tie on seq among themselves.
package eventq

import "hades/internal/vtime"

// Class orders events that share the same instant. Lower runs first.
type Class uint8

// Event classes, from most to least urgent at an instant.
const (
	// ClassInterrupt is for hardware interrupt arrivals (clock tick,
	// network card): they preempt everything, as in the paper where
	// kernel activities run at prio_max.
	ClassInterrupt Class = iota + 1
	// ClassKernel is for kernel-internal completions (end of an
	// interrupt handler's CPU segment, timer expiry bookkeeping).
	ClassKernel
	// ClassDispatch is for dispatcher decisions: activations,
	// thread completions, notification processing.
	ClassDispatch
	// ClassNetwork is for message deliveries crossing links.
	ClassNetwork
	// ClassApp is for application-visible callbacks and trace points.
	ClassApp
)

// Handler is what an event fires: Fire(n) runs with the payload the
// event was scheduled with.
type Handler interface{ Fire(n uint64) }

// Func carries a closure as a Handler; the payload is unused.
type Func func()

func (f Func) Fire(uint64) { f() }

// Event is a scheduled callback. Run fires it exactly once when the
// engine reaches the event's instant, unless the event was cancelled.
type Event struct {
	At    vtime.Time
	Class Class

	dead     bool  // lazily cancelled, possibly still occupying a heap slot
	recycled bool  // not from Push: goes back to the free list, never to the GC
	index    int32 // heap index, -1 once popped or compacted away, -2 on the free list
	h        Handler
	n        uint64 // h's payload
	seq      uint64
}

// Run fires the event: its handler with its payload.
func (e *Event) Run() { e.h.Fire(e.n) }

// Queue is a deterministic min-heap of events. The zero value is ready to
// use.
//
// Cancellation is lazy: Cancel marks the event dead in O(1) and the
// dead slot is reclaimed when it surfaces at the root (or by a bulk
// compaction once dead slots dominate). Dispatcher workloads cancel
// most of the timers they set — deadline watchdogs, omission timeouts —
// usually while the timer sits deep in a large heap, where an eager
// remove-and-sift costs O(log n) each.
type Queue struct {
	heap []*Event
	seq  uint64
	dead int      // cancelled events still occupying heap slots
	free []*Event // recycled records out of the heap, ready for reuse
}

// Len returns the number of pending (non-cancelled) events.
func (q *Queue) Len() int { return len(q.heap) - q.dead }

// Push schedules fire at instant at with the given class and returns
// its record for Cancel. The record is never reused, so it stays safe
// to cancel for ever.
func (q *Queue) Push(at vtime.Time, class Class, fire func()) *Event {
	q.seq++
	return q.push(&Event{}, at, class, Func(fire), 0, q.seq)
}

// Handle names one recycled push for CancelHandle: its record and the
// seq it was pushed at. The zero Handle names no event.
type Handle struct {
	e   *Event
	seq uint64
}

// Pending reports whether h's event is still queued: not fired, not
// cancelled, and its record not handed to another event.
func (h Handle) Pending() bool {
	return h.e != nil && h.e.seq == h.seq && h.e.index >= 0 && !h.e.dead
}

// PushRecycledTo schedules h.Fire(n) at instant at on a record from
// the free list; once the event fires or is cancelled the record
// belongs to the queue again and will be some other event, which the
// returned Handle never reaches. An owner that passes itself as h
// schedules without allocating.
func (q *Queue) PushRecycledTo(at vtime.Time, class Class, h Handler, n uint64) Handle {
	q.seq++
	return Handle{q.pushFree(at, class, h, n, q.seq), q.seq}
}

// Slot is a place in the (At, Class, seq) order, taken now for events
// pushed later with PushSlot.
type Slot uint64

// Slot takes the next seq for a chain of events pushed later with
// PushSlot, each at a strictly later instant than the one before.
func (q *Queue) Slot() Slot {
	q.seq++
	return Slot(q.seq)
}

// PushSlot is PushRecycledTo at the seq s took instead of a fresh one.
// Events pushed at one slot must not tie on (At, Class); a chain whose
// instants strictly increase never does. It returns no Handle: every
// event of the chain shares the seq, so a handle could not tell them
// apart.
func (q *Queue) PushSlot(s Slot, at vtime.Time, class Class, h Handler, n uint64) {
	q.pushFree(at, class, h, n, uint64(s))
}

// pushFree pushes at seq on a record from the free list, or a new
// recycled one when the list is empty.
func (q *Queue) pushFree(at vtime.Time, class Class, h Handler, n, seq uint64) *Event {
	if k := len(q.free); k > 0 {
		e := q.free[k-1]
		q.free[k-1] = nil
		q.free = q.free[:k-1]
		return q.push(e, at, class, h, n, seq)
	}
	return q.push(&Event{recycled: true}, at, class, h, n, seq)
}

func (q *Queue) push(e *Event, at vtime.Time, class Class, h Handler, n, seq uint64) *Event {
	e.At, e.Class, e.h, e.n, e.seq = at, class, h, n, seq
	q.heap = append(q.heap, e)
	e.index = int32(len(q.heap) - 1)
	q.up(int(e.index))
	return e
}

// Release hands a popped event back once it has fired. A recycled
// record drops its handler and joins the free list; a Push record is
// left to its handle, and so is anything not just out of the heap
// (still queued, or released already).
func (q *Queue) Release(e *Event) {
	if !e.recycled || e.index != -1 {
		return
	}
	e.h = nil
	e.dead = false
	e.index = -2
	q.free = append(q.free, e)
}

// CancelHandle cancels h's event if it is still queued; its heap slot
// is reclaimed lazily. On a handle whose event fired or was cancelled
// it does nothing, even once the record carries another event.
func (q *Queue) CancelHandle(h Handle) {
	e := h.e
	if e == nil || e.seq != h.seq || e.index < 0 || e.dead {
		return
	}
	e.dead = true
	e.h = nil // release the handler now, not at surfacing time
	q.dead++
	// Bound the garbage: once dead slots dominate a non-trivial heap,
	// rebuild it from the live events (amortised O(1) per cancel).
	if q.dead > 64 && q.dead > len(q.heap)/2 {
		q.compact()
	}
}

// Cancel cancels e, a Push record and so its own handle. Cancelling an
// already-fired or already-cancelled event is a no-op.
func (q *Queue) Cancel(e *Event) {
	if e != nil {
		q.CancelHandle(Handle{e, e.seq})
	}
}

// compact rebuilds the heap from the live events only. Ordering stays
// deterministic: the heap invariant is restored under the same total
// (At, Class, seq) order.
func (q *Queue) compact() {
	live := q.heap[:0]
	for _, e := range q.heap {
		if e.dead {
			e.index = -1
			q.Release(e)
			continue
		}
		live = append(live, e)
	}
	// Clear trailing slots so compacted events are not retained.
	for i := len(live); i < len(q.heap); i++ {
		q.heap[i] = nil
	}
	q.heap = live
	q.dead = 0
	for i := range q.heap {
		q.heap[i].index = int32(i)
	}
	for i := len(q.heap)/2 - 1; i >= 0; i-- {
		q.down(i)
	}
}

// skipDead discards dead events surfacing at the root.
func (q *Queue) skipDead() {
	for len(q.heap) > 0 && q.heap[0].dead {
		q.Release(q.removeRoot())
		q.dead--
	}
}

// removeRoot detaches the root event from the heap.
func (q *Queue) removeRoot() *Event {
	e := q.heap[0]
	last := len(q.heap) - 1
	q.swap(0, last)
	q.heap[last] = nil
	q.heap = q.heap[:last]
	e.index = -1
	if last > 0 {
		q.down(0)
	}
	return e
}

// Pop removes and returns the next live event, or nil if empty.
func (q *Queue) Pop() *Event { return q.PopUntil(vtime.Infinity) }

// PopUntil removes and returns the next live event if it is due at or
// before until; otherwise it returns nil and leaves the queue as it
// was, so Len tells an empty queue from one whose next event is later.
func (q *Queue) PopUntil(until vtime.Time) *Event {
	q.skipDead()
	if len(q.heap) == 0 || q.heap[0].At > until {
		return nil
	}
	return q.removeRoot()
}

func (q *Queue) less(i, j int) bool {
	a, b := q.heap[i], q.heap[j]
	if a.At != b.At {
		return a.At < b.At
	}
	if a.Class != b.Class {
		return a.Class < b.Class
	}
	return a.seq < b.seq
}

func (q *Queue) swap(i, j int) {
	q.heap[i], q.heap[j] = q.heap[j], q.heap[i]
	q.heap[i].index = int32(i)
	q.heap[j].index = int32(j)
}

func (q *Queue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.swap(i, parent)
		i = parent
	}
}

func (q *Queue) down(i int) {
	n := len(q.heap)
	for {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < n && q.less(left, smallest) {
			smallest = left
		}
		if right < n && q.less(right, smallest) {
			smallest = right
		}
		if smallest == i {
			return
		}
		q.swap(i, smallest)
		i = smallest
	}
}
