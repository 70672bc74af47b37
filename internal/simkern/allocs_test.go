//go:build !race

// The allocation gates live apart from the other tests because the race
// detector instruments allocation: under -race they would measure the
// detector, so that job does not build them (CI runs them by name in
// build-and-test, step "engine core allocates nothing per event").
//
// Every gate runs on a nil log after a warm-up. Priorities and WCETs
// are kept under 256 so that boxing them for Recordf — evaluated at the
// call site even when nothing records, ROADMAP item 1 — costs nothing
// and the gates price the engine core alone.

package simkern

import (
	"testing"

	"hades/internal/eventq"
	"hades/internal/vtime"
)

func gate(t *testing.T, what string, want float64, cycle func()) {
	t.Helper()
	for i := 0; i < 100; i++ {
		cycle() // warm-up: heap, free list, ready set and IRQ queue reach size
	}
	if n := testing.AllocsPerRun(200, cycle); n != want {
		t.Errorf("%s: %v allocs per run, want %v", what, n, want)
	}
}

func TestAllocsAfterFire(t *testing.T) {
	eng := NewEngine(nil, 1)
	fn := func() {}
	gate(t, "After -> fire", 0, func() {
		eng.After(100, eventq.ClassApp, fn)
		eng.At(eng.Now().Add(50), eventq.ClassKernel, fn)
		eng.RunUntilIdle()
	})
}

func TestAllocsRaiseIRQDrain(t *testing.T) {
	eng := NewEngine(nil, 1)
	p := eng.AddProcessor("n0", 0)
	handled := 0
	h := func() { handled++ }
	gate(t, "RaiseIRQ -> drain", 0, func() {
		// Three at once: the second and third wait in the queue.
		p.RaiseIRQ("atm", 100, h)
		p.RaiseIRQ("atm", 100, h)
		p.RaiseIRQ("clock", 50, nil)
		eng.RunUntilIdle()
	})
	if handled == 0 || p.irqHead != 0 || len(p.irqs) != 0 {
		t.Fatalf("IRQ queue not drained to its start (handled=%d head=%d len=%d)", handled, p.irqHead, len(p.irqs))
	}
}

func TestAllocsClockTick(t *testing.T) {
	eng := NewEngine(nil, 1)
	p := eng.AddProcessor("n0", 0)
	p.StartClockTick(200, 50)
	gate(t, "clock tick", 0, func() { eng.Run(eng.Now().Add(2000)) })
	if p.Ticks() == 0 {
		t.Fatal("no tick handled")
	}
}

func TestAllocsDispatchSegmentDone(t *testing.T) {
	eng := NewEngine(nil, 1)
	p := eng.AddProcessor("n0", 10)
	// Two long-lived threads flip priorities: every cycle is a
	// preemption (completion cancelled), two dispatches, and progress.
	a := p.NewThread("a", 5).AddSegment(Segment{Work: vtime.Second})
	b := p.NewThread("b", 4).AddSegment(Segment{Work: vtime.Second})
	a.Ready()
	b.Ready()
	hi, lo := a, b
	gate(t, "dispatch -> preempt -> dispatch", 0, func() {
		hi, lo = lo, hi
		hi.SetPriority(9)
		lo.SetPriority(1)
		eng.Run(eng.Now().Add(200))
	})
	if p.Preemptions() == 0 {
		t.Fatal("no preemption happened")
	}
}

func TestAllocsThreadLifecycle(t *testing.T) {
	eng := NewEngine(nil, 1)
	p := eng.AddProcessor("n0", 0)
	done := 0
	onDone := func() { done++ }
	gate(t, "3-segment thread lifecycle", 1, func() {
		th := p.NewThread("t", 5)
		th.AddSegment(Segment{Name: "start", Work: 10, PT: PrioMax})
		th.AddSegment(Segment{Name: "body", Work: 100, OnDone: onDone})
		th.AddSegment(Segment{Name: "end", Work: 10, PT: PrioMax})
		th.Ready()
		eng.RunUntilIdle()
		if !th.Finished() {
			t.Fatal("thread did not finish")
		}
	})
}
