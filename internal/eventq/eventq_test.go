package eventq

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"

	"hades/internal/vtime"
)

func TestPopOrder(t *testing.T) {
	var q Queue
	var got []int
	q.Push(30, ClassApp, func() { got = append(got, 3) })
	q.Push(10, ClassApp, func() { got = append(got, 1) })
	q.Push(20, ClassApp, func() { got = append(got, 2) })
	for q.Len() > 0 {
		q.Pop().Run()
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
}

func TestClassOrderingAtSameInstant(t *testing.T) {
	var q Queue
	var got []string
	q.Push(10, ClassApp, func() { got = append(got, "app") })
	q.Push(10, ClassInterrupt, func() { got = append(got, "irq") })
	q.Push(10, ClassDispatch, func() { got = append(got, "disp") })
	q.Push(10, ClassKernel, func() { got = append(got, "kern") })
	for q.Len() > 0 {
		q.Pop().Run()
	}
	want := []string{"irq", "kern", "disp", "app"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("class order %v, want %v", got, want)
		}
	}
}

func TestFIFOWithinClass(t *testing.T) {
	var q Queue
	var got []int
	for i := 0; i < 10; i++ {
		n := i
		q.Push(5, ClassApp, func() { got = append(got, n) })
	}
	for q.Len() > 0 {
		q.Pop().Run()
	}
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("FIFO violated: %v", got)
		}
	}
}

func TestCancel(t *testing.T) {
	var q Queue
	fired := false
	e := q.Push(10, ClassApp, func() { fired = true })
	q.Cancel(e)
	if q.Len() != 0 {
		t.Fatalf("Len = %d after cancel", q.Len())
	}
	if !e.dead {
		t.Error("event not marked cancelled")
	}
	// Double-cancel is a no-op.
	q.Cancel(e)
	if fired {
		t.Error("cancelled event fired")
	}
}

func TestCancelMiddle(t *testing.T) {
	var q Queue
	var got []int
	q.Push(1, ClassApp, func() { got = append(got, 1) })
	e2 := q.Push(2, ClassApp, func() { got = append(got, 2) })
	q.Push(3, ClassApp, func() { got = append(got, 3) })
	q.Cancel(e2)
	for q.Len() > 0 {
		q.Pop().Run()
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("got %v, want [1 3]", got)
	}
}

func TestPeek(t *testing.T) {
	var q Queue
	if q.Peek() != nil {
		t.Error("Peek on empty queue should be nil")
	}
	q.Push(5, ClassApp, nil)
	q.Push(3, ClassApp, nil)
	if q.Peek().At != 3 {
		t.Errorf("Peek.At = %d, want 3", q.Peek().At)
	}
	if q.Len() != 2 {
		t.Error("Peek must not remove")
	}
}

// Property: popping yields events in nondecreasing (At, Class, seq)
// order regardless of insertion or cancellation pattern.
func TestHeapOrderProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var q Queue
		var events []*Event
		for i := 0; i < int(n)+1; i++ {
			at := vtime.Time(rng.Int63n(100))
			cl := Class(1 + rng.Intn(5))
			events = append(events, q.Push(at, cl, nil))
		}
		// Cancel a random third.
		for _, e := range events {
			if rng.Intn(3) == 0 {
				q.Cancel(e)
			}
		}
		var popped []*Event
		for q.Len() > 0 {
			popped = append(popped, q.Pop())
		}
		ok := sort.SliceIsSorted(popped, func(i, j int) bool {
			a, b := popped[i], popped[j]
			if a.At != b.At {
				return a.At < b.At
			}
			if a.Class != b.Class {
				return a.Class < b.Class
			}
			return a.seq < b.seq
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: cancelled events never surface; non-cancelled all do.
func TestCancelCompleteness(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var q Queue
		cancelled := make(map[*Event]bool)
		var all []*Event
		for i := 0; i < int(n)+2; i++ {
			e := q.Push(vtime.Time(rng.Int63n(50)), ClassApp, nil)
			all = append(all, e)
		}
		for i, e := range all {
			if i%2 == 0 {
				q.Cancel(e)
				cancelled[e] = true
			}
		}
		seen := make(map[*Event]bool)
		for q.Len() > 0 {
			seen[q.Pop()] = true
		}
		for _, e := range all {
			if cancelled[e] && seen[e] {
				return false
			}
			if !cancelled[e] && !seen[e] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Model test for the two doors together: a seeded mix of Push,
// PushRecycled, PushRecycledTo, Cancel and Pop (+Run and Release, as
// the engine does) against a reference that keeps every live event in a slice
// and sorts it. Pops must agree event for event, Len must be exact
// after every step, and the free list may never hold more records
// than the heap had slots at its peak — recycling reuses, it does not
// hoard.
func TestModelAgainstSortedReference(t *testing.T) {
	type ref struct {
		at    vtime.Time
		class Class
		id    int // payload identity, carried by the closure or the payload
		ev    *Event
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q Queue
		var live []ref
		fired := -1
		ids, peak := 0, 0
		for step := 0; step < 4000; step++ {
			switch op := rng.Intn(10); {
			case op < 5: // schedule, through either door
				r := ref{at: vtime.Time(rng.Int63n(200)), class: Class(1 + rng.Intn(5)), id: ids}
				id := ids
				ids++
				fire := func() { fired = id }
				switch rng.Intn(3) {
				case 0:
					r.ev = q.Push(r.at, r.class, fire)
				case 1:
					r.ev = q.PushRecycled(r.at, r.class, fire)
				default:
					r.ev = q.PushRecycledTo(r.at, r.class, idSink{&fired}, uint64(id))
				}
				live = append(live, r)
			case op < 7 && len(live) > 0: // cancel a live one
				i := rng.Intn(len(live))
				q.Cancel(live[i].ev)
				live = append(live[:i], live[i+1:]...)
			case len(live) > 0: // pop: the reference picks by sort
				// live is in push order and the sort is stable, so ties
				// on (At, Class) resolve by seq as the heap's do.
				sort.SliceStable(live, func(i, j int) bool {
					if live[i].at != live[j].at {
						return live[i].at < live[j].at
					}
					if live[i].class != live[j].class {
						return live[i].class < live[j].class
					}
					return live[i].id < live[j].id
				})
				want := live[0]
				live = live[1:]
				ev := q.Pop()
				if ev != want.ev || ev.At != want.at || ev.Class != want.class {
					t.Fatalf("seed %d step %d: popped (%d,%d), want (%d,%d)", seed, step, ev.At, ev.Class, want.at, want.class)
				}
				ev.Run()
				if fired != want.id {
					t.Fatalf("seed %d step %d: fired payload %d, want %d", seed, step, fired, want.id)
				}
				q.Release(ev)
			}
			if q.Len() != len(live) {
				t.Fatalf("seed %d step %d: Len = %d, want %d", seed, step, q.Len(), len(live))
			}
			peak = max(peak, len(q.heap)) // slots, lazily cancelled ones included
			if len(q.free) > peak {
				t.Fatalf("seed %d step %d: free list %d longer than peak depth %d", seed, step, len(q.free), peak)
			}
		}
		if q.Pop() == nil != (len(live) == 0) {
			t.Fatalf("seed %d: queue and reference disagree on empty", seed)
		}
	}
}

// idSink is a Handler that stores its payload as the fired id.
type idSink struct{ fired *int }

func (s idSink) Fire(n uint64) { *s.fired = int(n) }

// The handler/payload record keeps Event at 48 bytes: the index packs
// beside the class and the flags, so the interface's second word costs
// nothing.
func TestEventRecordSize(t *testing.T) {
	if n := unsafe.Sizeof(Event{}); n != 48 {
		t.Fatalf("Event is %d bytes, want 48", n)
	}
}

// A recycled record really is reused, a Push record never is, and
// Release is harmless on anything that is not a just-popped recycled
// record.
func TestRecycledRecordReuse(t *testing.T) {
	var q Queue
	a := q.PushRecycled(1, ClassApp, nil)
	q.Release(a) // still queued: not released
	if q.Pop() != a {
		t.Fatal("released a queued event")
	}
	q.Release(a)
	q.Release(a) // twice: one free-list entry
	if len(q.free) != 1 {
		t.Fatalf("free list = %d after double release, want 1", len(q.free))
	}
	q.Cancel(a) // stale handle on a free record: no-op
	if q.Len() != 0 {
		t.Fatal("cancelling a free record changed Len")
	}
	if b := q.PushRecycled(2, ClassApp, nil); b != a {
		t.Fatal("free record not reused")
	}
	q.Cancel(a) // cancelled in the heap: reclaimed when it surfaces
	if q.Pop() != nil || len(q.free) != 1 {
		t.Fatalf("cancelled recycled record not reclaimed (free=%d)", len(q.free))
	}
	p := q.Push(3, ClassApp, nil)
	q.Release(q.Pop())
	if len(q.free) != 1 {
		t.Fatal("a Push record reached the free list")
	}
	q.Cancel(p) // cancel after fire stays a no-op
	if q.PushRecycled(4, ClassApp, nil) == p {
		t.Fatal("Push record recycled")
	}
}

// A chain pushed lazily at its slot, each event by its predecessor,
// pops in exactly the order an eager layout of the whole chain made at
// slot time gives: against same-instant, same-class ties pushed before
// the slot, after it at build and during the run, and across a
// compaction while the chain is half fired.
func TestSlotKeepsOrder(t *testing.T) {
	chain := []vtime.Time{10, 20, 30, 40, 50}
	run := func(lazy bool) []string {
		var q Queue
		var got []string
		rec := func(label string, at vtime.Time) func() {
			return func() { got = append(got, fmt.Sprintf("%s@%d", label, at)) }
		}
		for _, at := range chain {
			q.PushRecycled(at, ClassApp, rec("before", at))
			q.Push(at, ClassNetwork, rec("before-net", at))
		}
		if lazy {
			s := q.Slot()
			k := 0
			var next func()
			next = func() {
				rec("chain", chain[k])()
				if k++; k < len(chain) {
					q.PushSlot(s, chain[k], ClassApp, next)
				}
			}
			q.PushSlot(s, chain[0], ClassApp, next)
		} else {
			for _, at := range chain {
				q.PushRecycled(at, ClassApp, rec("chain", at))
			}
		}
		for _, at := range chain {
			q.PushRecycled(at, ClassApp, rec("after", at))
		}
		// At 20, ahead of the chain's own event there: ties for the
		// chain's later instants, pushed before the lazy chain reaches
		// them, then a burst of cancelled timers that compacts the heap.
		q.PushRecycled(20, ClassDispatch, func() {
			got = append(got, "run@20")
			for _, at := range chain[2:] {
				q.PushRecycled(at, ClassApp, rec("during", at))
			}
			burst := make([]*Event, 200)
			for i := range burst {
				burst[i] = q.Push(1000+vtime.Time(i), ClassApp, rec("burst", 1000))
			}
			for _, e := range burst {
				q.Cancel(e)
			}
			if len(q.heap) >= len(burst) {
				t.Errorf("lazy=%v: the cancelled burst left %d heap slots, want a compaction", lazy, len(q.heap))
			}
		})
		for e := q.Pop(); e != nil; e = q.Pop() {
			e.Run()
			q.Release(e)
		}
		return got
	}
	eager, lazy := run(false), run(true)
	if !slices.Equal(eager, lazy) {
		t.Fatalf("lazy chain pops\n%v\nwant the eager layout's\n%v", lazy, eager)
	}
	if want := 5*4 + 3 + 1; len(eager) != want {
		t.Fatalf("popped %d events, want %d: %v", len(eager), want, eager)
	}
}
