//go:build !race

// The allocation gates live apart from the other tests because the race
// detector instruments allocation: under -race they would measure the
// detector, so that job does not build them (CI runs them by name in
// build-and-test, step "engine core and record door allocate nothing").

package eventq

import (
	"testing"

	"hades/internal/vtime"
)

func TestAllocsRecycledPushPop(t *testing.T) {
	var q Queue
	fire := func() {}
	at := vtime.Time(0)
	cycle := func() {
		// A standing depth of 64 with one cancel per eight events, so
		// sift, lazy reclaim and the free list are all on the path.
		for i := 0; i < 8; i++ {
			at++
			e := q.PushRecycledTo(at+vtime.Time(i*7919%64), ClassApp, Func(fire), 0)
			if i == 0 {
				q.CancelHandle(e)
			}
		}
		for q.Len() > 64 {
			q.Release(q.Pop())
		}
	}
	for i := 0; i < 100; i++ {
		cycle() // warm-up: heap and free list reach their working size
	}
	if n := testing.AllocsPerRun(200, cycle); n != 0 {
		t.Errorf("recycled push/pop: %v allocs per cycle, want 0", n)
	}
}

// counter is an owner that schedules itself: the payload tells its
// firings apart.
type counter struct{ last uint64 }

func (c *counter) Fire(n uint64) { c.last = n }

func TestAllocsHandlerPushPop(t *testing.T) {
	var q Queue
	var h counter
	at := vtime.Time(0)
	cycle := func() {
		// The owner-and-payload door on the same standing depth of 64
		// and one cancel per eight events: what simkern.Engine.Arm
		// schedules for a reply timeout or a flush timer.
		for i := 0; i < 8; i++ {
			at++
			e := q.PushRecycledTo(at+vtime.Time(i*7919%64), ClassApp, &h, uint64(at))
			if i == 0 {
				q.CancelHandle(e)
			}
		}
		for q.Len() > 64 {
			e := q.Pop()
			e.Run()
			q.Release(e)
		}
	}
	for i := 0; i < 100; i++ {
		cycle()
	}
	if n := testing.AllocsPerRun(200, cycle); n != 0 {
		t.Errorf("handler push/pop: %v allocs per cycle, want 0", n)
	}
	if h.last == 0 {
		t.Fatal("no handler fired")
	}
}

func TestAllocsSlotPushPop(t *testing.T) {
	var q Queue
	fire := func() {}
	// A standing depth of 64 behind the chain, so every push sifts.
	for i := 0; i < 64; i++ {
		q.PushRecycledTo(1<<40+vtime.Time(i), ClassApp, Func(fire), 0)
	}
	s := q.Slot()
	at := vtime.Time(0)
	q.PushSlot(s, at, ClassApp, Func(fire), 0)
	cycle := func() {
		// The chain's door: its event fires and pushes the next at its
		// slot, one instant on.
		e := q.Pop()
		e.Run()
		q.Release(e)
		at++
		q.PushSlot(s, at, ClassApp, Func(fire), 0)
	}
	for i := 0; i < 100; i++ {
		cycle()
	}
	if n := testing.AllocsPerRun(200, cycle); n != 0 {
		t.Errorf("slot push/pop: %v allocs per cycle, want 0", n)
	}
}
