package eventq

import (
	"cmp"
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

// PopUntil takes only what is due by its bound and leaves a later
// event queued, so Len tells the two kinds of nil apart.
func TestPopUntil(t *testing.T) {
	var q Queue
	if q.PopUntil(vtime.Infinity) != nil {
		t.Error("PopUntil on empty queue should be nil")
	}
	q.Push(5, ClassApp, nil)
	q.Push(3, ClassApp, nil)
	if e := q.PopUntil(2); e != nil || q.Len() != 2 {
		t.Errorf("PopUntil(2) = %v with Len %d, want nil and 2 left", e, q.Len())
	}
	if e := q.PopUntil(3); e == nil || e.At != 3 {
		t.Errorf("PopUntil(3) = %v, want the event at 3", e)
	}
	q.Cancel(q.Push(4, ClassApp, nil))
	if e := q.PopUntil(4); e != nil || q.Len() != 1 {
		t.Errorf("PopUntil(4) = %v with Len %d, want the dead event skipped and 1 left", e, q.Len())
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

// Model test for every door together, at standing depths from 1 to
// 4096: a seeded mix of Push, PushRecycledTo (on a Func and on an
// owner), Slot then PushSlot chains, Cancel, CancelHandle and Pop (+Run and Release, as
// the engine does) holds the queue near each depth, against a reference
// kept sorted by (At, Class, seq) with its own seq count. Bursts of
// cancelled timers force bulk compactions, and handles of fired or
// cancelled events are cancelled again, many once their records carry
// other events: Pending must say false and nothing may change, while
// the handle of each event due next must still say true. Pops must
// agree event for event and Len after every step, and the free
// list may never hold more records than the heap had slots at its peak
// — recycling reuses, it does not hoard.
func TestModelAgainstSortedReference(t *testing.T) {
	type key struct {
		at    vtime.Time
		class Class
		seq   uint64
	}
	type ref struct {
		key
		id uint64 // the payload the event fires with
		ev *Event // nil for a chain event, which has no handle
		h  Handle // zero for a Push record
	}
	type chain struct {
		s    Slot
		seq  uint64
		last vtime.Time
	}
	const (
		byPush = iota
		byClosure
		byHandler
		byChain
		doors
	)
	for _, depth := range []int{1, 2, 3, 4, 5, 17, 64, 255, 1024, 4096} {
		rng := rand.New(rand.NewSource(int64(depth)))
		var q Queue
		var live, gone []ref // live sorted by key; gone fired or cancelled
		var chains []chain
		var seq, ids, fired uint64
		var now vtime.Time
		compactions, reusedHits, peak := 0, 0, 0
		push := func(door int) {
			ids++
			id := ids
			fire := func() { fired = id }
			r := ref{key: key{at: now + vtime.Time(rng.Int63n(3*int64(depth)+8)), class: Class(1 + rng.Intn(5))}, id: id}
			switch door {
			case byPush:
				seq++
				r.seq = seq
				r.ev = q.Push(r.at, r.class, fire)
			case byClosure:
				seq++
				r.seq = seq
				r.h = q.PushRecycledTo(r.at, r.class, Func(fire), 0)
				r.ev = r.h.e
			case byHandler:
				seq++
				r.seq = seq
				r.h = q.PushRecycledTo(r.at, r.class, payloadSink{&fired}, id)
				r.ev = r.h.e
			case byChain: // the chain's next event, strictly after its last
				if len(chains) < 4 {
					seq++
					chains = append(chains, chain{s: q.Slot(), seq: seq, last: -1})
				}
				c := &chains[rng.Intn(len(chains))]
				r.at = max(r.at, c.last+1)
				c.last, r.seq = r.at, c.seq
				q.PushSlot(c.s, r.at, r.class, Func(fire), 0)
			}
			i, _ := slices.BinarySearchFunc(live, r.key, func(x ref, k key) int {
				return cmp.Or(cmp.Compare(x.at, k.at), cmp.Compare(x.class, k.class), cmp.Compare(x.seq, k.seq))
			})
			live = slices.Insert(live, i, r)
			peak = max(peak, len(q.heap)) // slots, lazily cancelled ones included
		}
		cancel := func(i int) bool {
			r := live[i]
			if r.ev == nil {
				return false // a chain event cannot be cancelled
			}
			if r.h == (Handle{}) {
				q.Cancel(r.ev)
			} else {
				q.CancelHandle(r.h)
			}
			live = slices.Delete(live, i, i+1)
			gone = append(gone, r)
			return true
		}
		for len(live) < depth {
			push(rng.Intn(doors))
		}
		for step := 0; step < 2000+2*depth; step++ {
			if step%1500 == 750 { // a burst of timers, all disarmed
				n, dead := len(q.heap)+65, q.dead
				for range n {
					push(byHandler)
				}
				for k := n; k > 0; {
					if cancel(rng.Intn(len(live))) {
						k--
					}
				}
				if q.dead < dead+n {
					compactions++
				}
			}
			switch op := rng.Intn(20); {
			case op < 8 && (len(live) < depth || op < 4):
				push(rng.Intn(doors))
			case op < 9 && len(live) > 0:
				cancel(rng.Intn(len(live)))
			case op < 11 && len(gone) > 0: // a stale handle: a no-op
				r := gone[rng.Intn(len(gone))]
				if r.h.Pending() {
					t.Fatalf("depth %d step %d: a fired or cancelled event is pending", depth, step)
				}
				if r.h != (Handle{}) && r.h.e.index >= 0 {
					reusedHits++
				}
				if r.h == (Handle{}) && r.ev != nil {
					q.Cancel(r.ev)
				} else {
					q.CancelHandle(r.h)
				}
			case len(live) > 0:
				want := live[0]
				live = live[1:]
				gone = append(gone, want)
				if want.h != (Handle{}) && !want.h.Pending() {
					t.Fatalf("depth %d step %d: the event due next is not pending", depth, step)
				}
				ev := q.Pop()
				if ev == nil || ev.At != want.at || ev.Class != want.class || want.ev != nil && ev != want.ev {
					t.Fatalf("depth %d step %d: popped %v, want (%d,%d)", depth, step, ev, want.at, want.class)
				}
				now = ev.At
				ev.Run()
				if fired != want.id {
					t.Fatalf("depth %d step %d: fired %d, want %d", depth, step, fired, want.id)
				}
				q.Release(ev)
			}
			if q.Len() != len(live) {
				t.Fatalf("depth %d step %d: Len = %d, want %d", depth, step, q.Len(), len(live))
			}
			if len(q.free) > peak {
				t.Fatalf("depth %d step %d: free list %d longer than peak depth %d", depth, step, len(q.free), peak)
			}
		}
		if compactions == 0 || reusedHits == 0 {
			t.Errorf("depth %d: %d compactions, %d stale cancels on reused records; want some of each", depth, compactions, reusedHits)
		}
		for _, want := range live {
			ev := q.Pop()
			if ev == nil || ev.At != want.at || ev.Class != want.class {
				t.Fatalf("depth %d: drain popped %v, want (%d,%d)", depth, ev, want.at, want.class)
			}
			ev.Run()
			if fired != want.id {
				t.Fatalf("depth %d: drain fired %d, want %d", depth, fired, want.id)
			}
		}
		if q.Pop() != nil || q.Len() != 0 {
			t.Fatalf("depth %d: queue not empty after the reference drained", depth)
		}
	}
}

// payloadSink is a Handler that stores its payload as the fired id.
type payloadSink struct{ fired *uint64 }

func (s payloadSink) Fire(n uint64) { *s.fired = n }

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
	a := q.PushRecycledTo(1, ClassApp, nil, 0)
	q.Release(a.e) // still queued: not released
	if q.Pop() != a.e {
		t.Fatal("released a queued event")
	}
	q.Release(a.e)
	q.Release(a.e) // twice: one free-list entry
	if len(q.free) != 1 {
		t.Fatalf("free list = %d after double release, want 1", len(q.free))
	}
	q.CancelHandle(a) // stale handle on a free record: no-op
	if q.Len() != 0 {
		t.Fatal("cancelling a free record changed Len")
	}
	b := q.PushRecycledTo(2, ClassApp, nil, 0)
	if b.e != a.e {
		t.Fatal("free record not reused")
	}
	q.CancelHandle(b) // cancelled in the heap: reclaimed when it surfaces
	if q.Pop() != nil || len(q.free) != 1 {
		t.Fatalf("cancelled recycled record not reclaimed (free=%d)", len(q.free))
	}
	p := q.Push(3, ClassApp, nil)
	q.Release(q.Pop())
	if len(q.free) != 1 {
		t.Fatal("a Push record reached the free list")
	}
	q.Cancel(p) // cancel after fire stays a no-op
	if q.PushRecycledTo(4, ClassApp, nil, 0).e == p {
		t.Fatal("Push record recycled")
	}
}

// A handle outlives its event: once the record has fired and been
// reused by another event, cancelling the old handle leaves the new
// event alone, and so does a cancel long after, through many reuses.
func TestStaleHandleSparesReuser(t *testing.T) {
	var q Queue
	var fired []uint64
	h := recorder{&fired}
	old := q.PushRecycledTo(10, ClassDispatch, h, 1)
	e := q.Pop()
	e.Run()
	q.Release(e)
	reuser := q.PushRecycledTo(10, ClassDispatch, h, 2) // same instant, same class
	if reuser.e != old.e {
		t.Fatal("the fired record was not reused")
	}
	if old.Pending() || !reuser.Pending() {
		t.Fatal("Pending does not tell the fired event from its reuser")
	}
	q.CancelHandle(old)
	if q.Len() != 1 || !reuser.Pending() {
		t.Fatal("a stale handle cancelled the event now holding its record")
	}
	// A record cancelled, reclaimed and reused: the cancelled handle is
	// as stale as a fired one.
	dead := q.PushRecycledTo(20, ClassDispatch, h, 3)
	q.CancelHandle(dead)
	for e := q.Pop(); e != nil; e = q.Pop() {
		e.Run()
		q.Release(e)
	}
	for i := uint64(0); i < 100; i++ {
		next := q.PushRecycledTo(vtime.Time(30+i), ClassDispatch, h, 4+i)
		q.CancelHandle(old)
		q.CancelHandle(dead)
		q.CancelHandle(reuser)
		if !next.Pending() {
			t.Fatalf("reuse %d: a stale cancel reached the live event", i)
		}
		e := q.Pop()
		e.Run()
		q.Release(e)
	}
	if len(fired) != 102 || fired[1] != 2 || fired[2] != 4 || fired[101] != 103 {
		t.Fatalf("fired %v, want payloads 1, 2 and 4..103", fired)
	}
	q.CancelHandle(Handle{}) // names no event
}

// recorder is a Handler that appends each payload it fires with.
type recorder struct{ got *[]uint64 }

func (r recorder) Fire(n uint64) { *r.got = append(*r.got, n) }

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
			q.PushRecycledTo(at, ClassApp, Func(rec("before", at)), 0)
			q.Push(at, ClassNetwork, rec("before-net", at))
		}
		if lazy {
			s := q.Slot()
			k := 0
			var next func()
			next = func() {
				rec("chain", chain[k])()
				if k++; k < len(chain) {
					q.PushSlot(s, chain[k], ClassApp, Func(next), 0)
				}
			}
			q.PushSlot(s, chain[0], ClassApp, Func(next), 0)
		} else {
			for _, at := range chain {
				q.PushRecycledTo(at, ClassApp, Func(rec("chain", at)), 0)
			}
		}
		for _, at := range chain {
			q.PushRecycledTo(at, ClassApp, Func(rec("after", at)), 0)
		}
		// At 20, ahead of the chain's own event there: ties for the
		// chain's later instants, pushed before the lazy chain reaches
		// them, then a burst of cancelled timers that compacts the heap.
		q.PushRecycledTo(20, ClassDispatch, Func(func() {
			got = append(got, "run@20")
			for _, at := range chain[2:] {
				q.PushRecycledTo(at, ClassApp, Func(rec("during", at)), 0)
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
		}), 0)
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
