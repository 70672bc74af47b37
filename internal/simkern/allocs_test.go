//go:build !race

// The allocation gates live apart from the other tests because the race
// detector instruments allocation: under -race they would measure the
// detector, so that job does not build them (CI runs them by name in
// build-and-test, step "engine core and record door allocate nothing").
//
// Every gate but the kept-record one runs after a warm-up at production
// settings: kernel-class priorities and microsecond WCETs, recorded into
// a full head-mode log — the state of every long run once its window has
// filled. Recordf boxes those values at the call site; the record door
// keeps the boxes on the caller's stack, so a refused record costs the
// engine nothing.

package simkern

import (
	"fmt"
	"testing"

	"hades/internal/eventq"
	"hades/internal/monitor"
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

// fullLog returns a head-mode log whose window is already full, so it
// refuses every record that is neither a violation nor a fault.
func fullLog() *monitor.Log {
	l := monitor.NewLog(1)
	l.Recordf(0, monitor.KindActivation, 0, "first", "")
	return l
}

// fired is an owner scheduled through Arm.
type fired struct{ n uint64 }

func (f *fired) Fire(n uint64) { f.n = n }

func TestAllocsAfterFire(t *testing.T) {
	eng := NewEngine(fullLog(), 1)
	fn := func() {}
	var h fired
	gate(t, "After -> fire", 0, func() {
		eng.After(100, eventq.ClassApp, fn)
		eng.At(eng.Now().Add(50), eventq.ClassKernel, fn)
		eng.Arm(eng.Now().Add(75), eventq.ClassApp, &h, h.n+1)
		eng.RunUntilIdle()
	})
	if h.n == 0 {
		t.Fatal("Arm never fired")
	}
}

func TestAllocsRaiseIRQDrain(t *testing.T) {
	eng := NewEngine(fullLog(), 1)
	p := eng.AddProcessor("n0", 0)
	handled := 0
	h := eventq.Func(func() { handled++ })
	gate(t, "RaiseIRQ -> drain", 0, func() {
		// Three at once: the second and third wait in the queue.
		p.RaiseIRQ(IRQATM, 100*us, h, 0)
		p.RaiseIRQ(IRQATM, 100*us, h, 0)
		p.RaiseIRQ(IRQClock, 50*us, nil, 0)
		eng.RunUntilIdle()
	})
	if handled == 0 || p.irqHead != 0 || len(p.irqs) != 0 {
		t.Fatalf("IRQ queue not drained to its start (handled=%d head=%d len=%d)", handled, p.irqHead, len(p.irqs))
	}
}

func TestAllocsClockTick(t *testing.T) {
	eng := NewEngine(fullLog(), 1)
	p := eng.AddProcessor("n0", 0)
	p.StartClockTick(200*us, 50*us)
	gate(t, "clock tick", 0, func() { eng.Run(eng.Now().Add(2000 * us)) })
	if p.ticks == 0 {
		t.Fatal("no tick handled")
	}
}

func TestAllocsDispatchSegmentDone(t *testing.T) {
	eng := NewEngine(fullLog(), 1)
	p := eng.AddProcessor("n0", 10*us)
	// Two long-lived threads flip priorities: every cycle is a
	// preemption (completion cancelled), two dispatches, and progress.
	a := p.NewThread("a", PrioMax-2).AddSegment(Segment{Work: vtime.Second})
	b := p.NewThread("b", PrioMax-3).AddSegment(Segment{Work: vtime.Second})
	a.Ready()
	b.Ready()
	hi, lo := a, b
	gate(t, "dispatch -> preempt -> dispatch", 0, func() {
		hi, lo = lo, hi
		hi.SetPriority(PrioMax - 2)
		lo.SetPriority(PrioMax - 9)
		eng.Run(eng.Now().Add(200 * us))
	})
	if p.Preemptions() == 0 {
		t.Fatal("no preemption happened")
	}
}

func TestAllocsThreadLifecycle(t *testing.T) {
	eng := NewEngine(fullLog(), 1)
	p := eng.AddProcessor("n0", 0)
	done := 0
	onDone := func() { done++ }
	gate(t, "3-segment thread lifecycle", 1, func() {
		th := p.NewThread("t", PrioMax-2)
		th.AddSegment(Segment{Work: 10 * us, PT: PrioMax})
		th.AddSegment(Segment{Work: 100 * us, OnDone: onDone})
		th.AddSegment(Segment{Work: 10 * us, PT: PrioMax})
		th.Ready()
		eng.RunUntilIdle()
		if !th.Finished() {
			t.Fatal("thread did not finish")
		}
	})
}

// TestAllocsInitThreadLifecycle: a thread kept in caller-owned storage
// and reinitialised per use costs nothing; its lazy name is never
// rendered for a record the log refuses.
func TestAllocsInitThreadLifecycle(t *testing.T) {
	eng := NewEngine(fullLog(), 1)
	p := eng.AddProcessor("n0", 10*us)
	var th Thread
	seq := 0
	owner := &funcOwner{name: func() string { return fmt.Sprintf("t#%d", seq) }}
	done := 0
	onDone := func() { done++ }
	gate(t, "3-segment InitThread lifecycle", 0, func() {
		seq++
		p.InitThread(&th, owner, PrioMax-2)
		th.AddSegment(Segment{Work: 10 * us, PT: PrioMax})
		th.AddSegment(Segment{Work: 100 * us, OnDone: onDone})
		th.AddSegment(Segment{Work: 10 * us, PT: PrioMax})
		th.Ready()
		eng.RunUntilIdle()
		if !th.Finished() {
			t.Fatal("thread did not finish")
		}
	})
	if done == 0 || p.Switches() != done {
		t.Fatalf("%d threads ran with %d switches: each reinitialised thread must pay one", done, p.Switches())
	}
}

// TestAllocsRefusedRecord: a record the log refuses costs nothing —
// every argument type Recordf accepts stays boxed on the caller's stack.
func TestAllocsRefusedRecord(t *testing.T) {
	eng := NewEngine(fullLog(), 1)
	n, f, d := 1000, 0.25, 1500*us
	s, ints, strs, sides := "key", []int{300, 400}, []string{"a", "b"}, [][]int{{0, 1}, {2}}
	gate(t, "refused record", 0, func() {
		n++
		f += 1.5
		d += us
		eng.Recordf(monitor.KindMessageSend, n, s, "%d %d %d %d %d %d %d %d %d %d %d %g %s %q %s %s %v %v %v",
			n, int8(n), int16(n), int32(n), int64(n), uint(n), uint8(n), uint16(n), uint32(n), uint64(n), uintptr(n),
			f, s, s, d, vtime.Time(d), ints, strs, sides)
	})
	if log := eng.Log(); log.Len() != 1 || log.Dropped() < 200 {
		t.Fatalf("Len=%d Dropped=%d: the full window must refuse and count every record", log.Len(), log.Dropped())
	}
}

// TestAllocsKeptRecord: a record the log keeps costs no allocation of
// its own, however many arguments it formats: its record goes into the
// open chunk and its subject and typed detail into that chunk's text.
// The window is unbounded; the chunks and text blocks it grows into
// amortise to under one allocation per run.
func TestAllocsKeptRecord(t *testing.T) {
	eng := NewEngine(monitor.NewLog(0), 1)
	n, id, lat := 1000, uint64(1<<40), 1500*us
	gate(t, "kept record", 0, func() {
		n++
		lat += us
		eng.Recordf(monitor.KindMessageRecv, n, "port", "from=n%d id=%d lat=%s", n, id, lat)
	})
	if ev := eng.Log().Events(); ev[len(ev)-1].Detail != fmt.Sprintf("from=n%d id=%d lat=%s", n, id, lat) {
		t.Fatalf("log holds %d events, newest %v", len(ev), ev[len(ev)-1])
	}
}
