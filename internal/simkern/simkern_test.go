package simkern

import (
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"hades/internal/eventq"
	"hades/internal/monitor"
	"hades/internal/vtime"
)

const us = vtime.Microsecond

func newEng() *Engine {
	return NewEngine(monitor.NewLog(0), 1)
}

func TestSingleThreadRunsToCompletion(t *testing.T) {
	eng := newEng()
	p := eng.AddProcessor("n0", 0)
	done := vtime.Time(-1)
	th := p.NewThread("a", 5)
	th.AddSegment(Segment{Work: 100 * us})
	onComplete(th, func() { done = eng.Now() })
	th.Ready()
	eng.RunUntilIdle()
	if done != vtime.Time(100*us) {
		t.Fatalf("completion at %s, want 100us", done)
	}
	if got := th.cpuTime; got != 100*us {
		t.Fatalf("CPUTime = %s, want 100us", got)
	}
	if !th.Finished() {
		t.Fatal("thread not finished")
	}
}

func TestPriorityPreemption(t *testing.T) {
	eng := newEng()
	p := eng.AddProcessor("n0", 0)
	var finish []string
	lo := p.NewThread("lo", 1)
	lo.AddSegment(Segment{Work: 100 * us})
	onComplete(lo, func() { finish = append(finish, "lo") })
	lo.Ready()

	eng.After(10*us, eventq.ClassDispatch, func() {
		hi := p.NewThread("hi", 9)
		hi.AddSegment(Segment{Work: 20 * us})
		onComplete(hi, func() { finish = append(finish, "hi") })
		hi.Ready()
	})
	end := eng.RunUntilIdle()
	if len(finish) != 2 || finish[0] != "hi" || finish[1] != "lo" {
		t.Fatalf("finish order %v, want [hi lo]", finish)
	}
	// lo: 10 before the preemption, hi's 20, then lo's remaining 90:
	// idle at 10+20+90 = 120us.
	if end != vtime.Time(120*us) {
		t.Fatalf("idle at %s, want 120us", end)
	}
	if p.Preemptions() != 1 {
		t.Fatalf("preemptions = %d, want 1", p.Preemptions())
	}
}

func TestEqualPriorityIsFIFO(t *testing.T) {
	eng := newEng()
	p := eng.AddProcessor("n0", 0)
	var finish []string
	for _, name := range []string{"a", "b", "c"} {
		n := name
		th := p.NewThread(n, 5)
		th.AddSegment(Segment{Work: 10 * us})
		onComplete(th, func() { finish = append(finish, n) })
		th.Ready()
	}
	eng.RunUntilIdle()
	if finish[0] != "a" || finish[1] != "b" || finish[2] != "c" {
		t.Fatalf("finish order %v", finish)
	}
}

func TestPreemptionThresholdBlocksPreemption(t *testing.T) {
	eng := newEng()
	p := eng.AddProcessor("n0", 0)
	var order []string
	lo := p.NewThread("lo", 1)
	lo.AddSegment(Segment{Work: 100 * us, PT: 9}) // threshold above hi
	onComplete(lo, func() { order = append(order, "lo") })
	lo.Ready()
	eng.After(10*us, eventq.ClassDispatch, func() {
		hi := p.NewThread("hi", 8) // 8 <= pt 9: must NOT preempt
		hi.AddSegment(Segment{Work: 20 * us})
		onComplete(hi, func() { order = append(order, "hi") })
		hi.Ready()
	})
	eng.RunUntilIdle()
	if order[0] != "lo" {
		t.Fatalf("order %v: preemption threshold violated", order)
	}
	if p.Preemptions() != 0 {
		t.Fatalf("preemptions = %d, want 0", p.Preemptions())
	}
}

func TestPreemptionThresholdExceeded(t *testing.T) {
	eng := newEng()
	p := eng.AddProcessor("n0", 0)
	var order []string
	lo := p.NewThread("lo", 1)
	lo.AddSegment(Segment{Work: 100 * us, PT: 5})
	onComplete(lo, func() { order = append(order, "lo") })
	lo.Ready()
	eng.After(10*us, eventq.ClassDispatch, func() {
		hi := p.NewThread("hi", 6) // 6 > pt 5: preempts
		hi.AddSegment(Segment{Work: 20 * us})
		onComplete(hi, func() { order = append(order, "hi") })
		hi.Ready()
	})
	eng.RunUntilIdle()
	if order[0] != "hi" {
		t.Fatalf("order %v: priority above threshold failed to preempt", order)
	}
}

func TestDynamicPriorityChangeCausesPreemption(t *testing.T) {
	eng := newEng()
	p := eng.AddProcessor("n0", 0)
	var order []string
	a := p.NewThread("a", 5)
	a.AddSegment(Segment{Work: 100 * us})
	onComplete(a, func() { order = append(order, "a") })
	a.Ready()
	b := p.NewThread("b", 5)
	b.AddSegment(Segment{Work: 10 * us})
	onComplete(b, func() { order = append(order, "b") })
	b.Ready() // FIFO: a runs first
	eng.After(20*us, eventq.ClassDispatch, func() {
		b.SetPriority(7) // EDF-style raise: b must now preempt a
	})
	eng.RunUntilIdle()
	if order[0] != "b" {
		t.Fatalf("order %v, want b first after priority raise", order)
	}
}

func TestPriorityLoweringOfRunningThread(t *testing.T) {
	eng := newEng()
	p := eng.AddProcessor("n0", 0)
	var order []string
	a := p.NewThread("a", 7)
	a.AddSegment(Segment{Work: 100 * us})
	onComplete(a, func() { order = append(order, "a") })
	a.Ready()
	b := p.NewThread("b", 5)
	b.AddSegment(Segment{Work: 10 * us})
	onComplete(b, func() { order = append(order, "b") })
	b.Ready()
	eng.After(20*us, eventq.ClassDispatch, func() {
		a.SetPriority(3) // Figure 2: lowering the running thread
	})
	eng.RunUntilIdle()
	if order[0] != "b" {
		t.Fatalf("order %v: lowering running thread must let b preempt", order)
	}
}

func TestInterruptPreemptsEverything(t *testing.T) {
	eng := newEng()
	p := eng.AddProcessor("n0", 0)
	var irqAt vtime.Time
	th := p.NewThread("t", PrioMax-1)
	th.AddSegment(Segment{Work: 100 * us, PT: PrioMax}) // even kernel-call segments
	th.Ready()
	eng.After(10*us, eventq.ClassInterrupt, func() {
		p.RaiseIRQ(IRQATM, 5*us, eventq.Func(func() { irqAt = eng.Now() }), 0)
	})
	end := eng.RunUntilIdle()
	if irqAt != vtime.Time(15*us) {
		t.Fatalf("irq handled at %s, want 15us", irqAt)
	}
	if end != vtime.Time(105*us) {
		t.Fatalf("thread done at %s, want 105us (100 work + 5 irq)", end)
	}
	if p.IRQTime() != 5*us {
		t.Fatalf("IRQTime = %s", p.IRQTime())
	}
}

func TestClockTick(t *testing.T) {
	eng := newEng()
	p := eng.AddProcessor("n0", 0)
	p.StartClockTick(1*vtime.Millisecond, 5*us)
	// The 10th tick arrives at 10ms and its 5us handler completes just
	// after; run slightly past the last period boundary.
	eng.Run(vtime.Time(10*vtime.Millisecond + 10*us))
	if p.ticks != 10 {
		t.Fatalf("ticks = %d, want 10", p.ticks)
	}
	st := p.IRQBySource()["clock"]
	if st == nil || st.Count != 10 {
		t.Fatalf("clock IRQ stats missing or wrong: %+v", st)
	}
	if st.MinGap != 1*vtime.Millisecond {
		t.Fatalf("pseudo-period = %s, want 1ms", st.MinGap)
	}
	if st.MaxWCET != 5*us {
		t.Fatalf("wcet = %s, want 5us", st.MaxWCET)
	}
}

func TestContextSwitchCost(t *testing.T) {
	eng := newEng()
	p := eng.AddProcessor("n0", 10*us)
	var doneA, doneB vtime.Time
	a := p.NewThread("a", 5)
	a.AddSegment(Segment{Work: 50 * us})
	onComplete(a, func() { doneA = eng.Now() })
	a.Ready()
	b := p.NewThread("b", 5)
	b.AddSegment(Segment{Work: 50 * us})
	onComplete(b, func() { doneB = eng.Now() })
	b.Ready()
	eng.RunUntilIdle()
	// a: switch 10 + 50 = 60; b: switch 10 + 50 => 120.
	if doneA != vtime.Time(60*us) {
		t.Fatalf("a done at %s, want 60us", doneA)
	}
	if doneB != vtime.Time(120*us) {
		t.Fatalf("b done at %s, want 120us", doneB)
	}
	if p.SwitchTime() != 20*us {
		t.Fatalf("switch time %s, want 20us", p.SwitchTime())
	}
}

func TestSegmentSequencingAndCallbacks(t *testing.T) {
	eng := newEng()
	p := eng.AddProcessor("n0", 0)
	var marks []string
	th := p.NewThread("t", 5)
	th.AddSegment(Segment{Work: 10 * us, OnDone: func() { marks = append(marks, "s1") }})
	th.AddSegment(Segment{Work: 20 * us, OnDone: func() { marks = append(marks, "s2") }})
	onComplete(th, func() { marks = append(marks, "done") })
	th.Ready()
	end := eng.RunUntilIdle()
	if end != vtime.Time(30*us) {
		t.Fatalf("end %s, want 30us", end)
	}
	want := []string{"s1", "s2", "done"}
	for i := range want {
		if marks[i] != want[i] {
			t.Fatalf("marks %v, want %v", marks, want)
		}
	}
}

func TestSuspendResumeMidThread(t *testing.T) {
	eng := newEng()
	p := eng.AddProcessor("n0", 0)
	var done vtime.Time
	th := p.NewThread("t", 5)
	th.AddSegment(Segment{Work: 10 * us, OnDone: func() { th.Suspend() }})
	th.AddSegment(Segment{Work: 10 * us})
	onComplete(th, func() { done = eng.Now() })
	th.Ready()
	eng.After(100*us, eventq.ClassDispatch, func() { th.Ready() })
	eng.RunUntilIdle()
	if done != vtime.Time(110*us) {
		t.Fatalf("done at %s, want 110us (10 + resume at 100 + 10)", done)
	}
}

func TestSuspendPreservesRemainingWork(t *testing.T) {
	eng := newEng()
	p := eng.AddProcessor("n0", 0)
	th := p.NewThread("t", 5)
	th.AddSegment(Segment{Work: 100 * us})
	th.Ready()
	eng.After(30*us, eventq.ClassDispatch, func() { th.Suspend() })
	eng.RunUntilIdle()
	if got := th.remainingWork(); got != 70*us {
		t.Fatalf("remaining %s, want 70us", got)
	}
	th.Ready()
	end := eng.RunUntilIdle()
	if end != vtime.Time(100*us) {
		t.Fatalf("end %s, want 100us", end)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() string {
		log := monitor.NewLog(0)
		eng := NewEngine(log, 42)
		p := eng.AddProcessor("n0", 2*us)
		p.StartClockTick(500*us, 3*us)
		for i := 0; i < 5; i++ {
			th := p.NewThread(string(rune('a'+i)), 3+i%3)
			th.AddSegment(Segment{Work: vtime.Duration(10+i*7) * us})
			th.Ready()
		}
		eng.Run(vtime.Time(5 * vtime.Millisecond))
		out := ""
		for _, e := range log.Events() {
			out += e.String() + "\n"
		}
		return out
	}
	if run() != run() {
		t.Fatal("two identical runs produced different traces")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	eng := newEng()
	eng.After(10*us, eventq.ClassApp, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		eng.At(5, eventq.ClassApp, nil)
	})
	eng.RunUntilIdle()
}

// One seeded schedule runs twice: once through every door (At, After,
// Arm, and chains pushed lazily at their slot with AtSlot, as
// cluster.Chain does) and once through Arm alone, each chain laid out
// whole where it took its slot. The adapters add nothing of their own,
// so both runs fire the same (instant, class, seq) sequence, seq being
// an event's number in the schedule.
func TestAdaptersFireAsArm(t *testing.T) {
	type firing struct {
		at    vtime.Time
		class eventq.Class
		seq   int
	}
	run := func(armOnly bool) []firing {
		eng := NewEngine(nil, 1)
		rng := rand.New(rand.NewSource(59))
		var got []firing
		seq := 0
		var schedule func()
		fire := func(class eventq.Class, n int, next func()) func() {
			return func() {
				got = append(got, firing{eng.Now(), class, n})
				if next != nil {
					next()
				}
				if seq < 4000 {
					schedule()
					if rng.Intn(3) == 0 {
						schedule()
					}
				}
			}
		}
		schedule = func() {
			now := eng.Now()
			at := now.Add(vtime.Duration(rng.Intn(20)))
			class := eventq.Class(1 + rng.Intn(5))
			switch door := rng.Intn(4); {
			case door == 3: // a chain, each event scheduling the next
				ats := []vtime.Time{at}
				for k := rng.Intn(5); k > 0; k-- {
					ats = append(ats, ats[len(ats)-1].Add(vtime.Duration(1+rng.Intn(30))))
				}
				first := seq + 1
				seq += len(ats)
				if armOnly {
					for k, at := range ats {
						eng.Arm(at, class, eventq.Func(fire(class, first+k, nil)), 0)
					}
					return
				}
				slot := eng.Slot()
				var push func(k int)
				push = func(k int) {
					var next func()
					if k+1 < len(ats) {
						next = func() { push(k + 1) }
					}
					eng.AtSlot(slot, ats[k], class, eventq.Func(fire(class, first+k, next)), 0)
				}
				push(0)
			case armOnly || door == 0:
				seq++
				eng.Arm(at, class, eventq.Func(fire(class, seq, nil)), 0)
			case door == 1:
				seq++
				eng.At(at, class, fire(class, seq, nil))
			default:
				seq++
				eng.After(at.Sub(now), class, fire(class, seq, nil))
			}
		}
		for range 50 {
			schedule()
		}
		eng.RunUntilIdle()
		return got
	}
	doors, armed := run(false), run(true)
	if len(armed) < 4000 {
		t.Fatalf("the schedule fired %d events, want at least 4000", len(armed))
	}
	for i := range min(len(doors), len(armed)) {
		if doors[i] != armed[i] {
			t.Fatalf("firing %d: through the adapters %+v, through Arm alone %+v", i, doors[i], armed[i])
		}
	}
	if len(doors) != len(armed) {
		t.Fatalf("%d firings through the adapters, %d through Arm alone", len(doors), len(armed))
	}
}

func TestRunUntilHorizon(t *testing.T) {
	eng := newEng()
	fired := false
	eng.After(100*us, eventq.ClassApp, func() { fired = true })
	end := eng.Run(vtime.Time(50 * us))
	if fired {
		t.Fatal("event beyond horizon fired")
	}
	if end != vtime.Time(50*us) {
		t.Fatalf("clock at %s, want 50us", end)
	}
	eng.Run(vtime.Time(200 * us))
	if !fired {
		t.Fatal("event not fired after horizon extended")
	}
}

func TestZeroWorkSegment(t *testing.T) {
	eng := newEng()
	p := eng.AddProcessor("n0", 0)
	var done bool
	th := p.NewThread("z", 5)
	th.AddSegment(Segment{Work: 0})
	onComplete(th, func() { done = true })
	th.Ready()
	eng.RunUntilIdle()
	if !done {
		t.Fatal("zero-work thread did not complete")
	}
}

func TestBusyAccounting(t *testing.T) {
	eng := newEng()
	p := eng.AddProcessor("n0", 0)
	a := p.NewThread("a", 5)
	a.AddSegment(Segment{Work: 30 * us})
	a.Ready()
	b := p.NewThread("b", 9)
	b.AddSegment(Segment{Work: 20 * us})
	b.Ready()
	eng.RunUntilIdle()
	if p.BusyTime() != 50*us {
		t.Fatalf("busy %s, want 50us", p.BusyTime())
	}
}

// TestRecordfFormatsOnlyWhatIsKept: the one record door stamps the
// firing instant and renders the detail of what the log keeps — with
// room, or a kind the side lists keep — while a full window counts the
// rest as dropped. That a refused record is never
// formatted is held by TestAllocsRefusedRecord: it costs nothing.
func TestRecordfFormatsOnlyWhatIsKept(t *testing.T) {
	arg := 1500 * us
	at := func(eng *Engine, kind monitor.Kind) {
		eng.At(vtime.Time(7*us), eventq.ClassApp, func() { eng.Recordf(kind, 2, "subj", "x=%s", arg) })
		eng.RunUntilIdle()
	}

	head := monitor.NewLog(1)
	eng := NewEngine(head, 1)
	at(eng, monitor.KindMessageSend)
	want := monitor.Event{At: vtime.Time(7 * us), Kind: monitor.KindMessageSend, Node: 2, Subject: "subj", Detail: "x=1.5ms"}
	if ev := head.Events(); len(ev) != 1 || ev[0] != want {
		t.Fatalf("with room: events %v, want %v", ev, want)
	}
	eng.Recordf(monitor.KindMessageSend, 2, "subj", "x=%s", arg)
	if head.Len() != 1 || head.Dropped() != 1 {
		t.Fatalf("full head log: Len=%d Dropped=%d; want the event counted, not kept", head.Len(), head.Dropped())
	}
	eng.Recordf(monitor.KindDeadlineMiss, 2, "subj", "x=%s", arg)
	if v := head.Violations(); len(v) != 1 || v[0].Detail != "x=1.5ms" || head.Dropped() != 2 {
		t.Fatalf("late violation: Violations %v, Dropped=%d", v, head.Dropped())
	}

	all := monitor.NewLog(0)
	eng = NewEngine(all, 1)
	at(eng, monitor.KindMessageSend)
	eng.Recordf(monitor.KindMessageRecv, 2, "subj", "x=%s", arg)
	if ev := all.Events(); len(ev) != 2 || ev[1].Kind != monitor.KindMessageRecv || ev[1].Detail != "x=1.5ms" || all.Dropped() != 0 {
		t.Fatalf("unbounded log: events %v, Dropped=%d; want both kept", ev, all.Dropped())
	}

	at(NewEngine(nil, 1), monitor.KindMessageSend) // a nil log records nothing
}

// tally is a Handler that counts its firings by payload.
type tally map[uint64]int

func (c tally) Fire(n uint64) { c[n]++ }

// A timer (an armed event) has its record recycled like any other, and
// its handle checks the seq it was armed at: kept past the fire, through many
// reuses of the record by At/After, it cancels nothing.
func TestTimerCancelAfterFireIsNoOp(t *testing.T) {
	eng := newEng()
	armed := tally{}
	stale := eng.Arm(vtime.Time(us), eventq.ClassApp, armed, 0)
	eng.RunUntilIdle()
	// The free list holds the one record stale named: this event takes
	// it, at the same instant and class a stale cancel would hit.
	reuser := eng.Arm(eng.Now(), eventq.ClassApp, armed, 1)
	eng.Cancel(stale)
	if !reuser.Pending() {
		t.Fatal("a stale handle cancelled the event reusing its record")
	}
	eng.RunUntilIdle()
	if armed[0] != 1 || armed[1] != 1 {
		t.Fatalf("armed events fired %v, want each once", armed)
	}
	const n = 10000
	fired := make([]int, n)
	for i := 0; i < n; i++ {
		// Spread over instants and drained in between, so the fire-and-
		// forget records are recycled many times over.
		eng.After(vtime.Duration(1+i%7)*us, eventq.ClassApp, func() { fired[i]++ })
		if i%100 == 99 {
			eng.Cancel(stale)
			eng.Cancel(reuser)
			eng.Run(eng.Now().Add(3 * us))
		}
	}
	eng.Cancel(stale)
	eng.RunUntilIdle()
	eng.Cancel(stale)
	for i, c := range fired {
		if c != 1 {
			t.Fatalf("event %d fired %d times, want 1", i, c)
		}
	}
	if armed[0] != 1 || armed[1] != 1 {
		t.Fatalf("armed events fired again (%v)", armed)
	}
}

// A cancelled timer does not fire, and cancelling it twice is a no-op.
func TestTimerCancel(t *testing.T) {
	eng := newEng()
	fired := tally{}
	h := eng.Arm(vtime.Time(10*us), eventq.ClassDispatch, fired, 7)
	eng.Cancel(h)
	eng.Cancel(h)
	eng.RunUntilIdle()
	if len(fired) != 0 {
		t.Fatal("cancelled event fired")
	}
}

// The inline buffer holds three segments; a fourth and fifth move the
// thread's segments to the heap, and all still run in order — also
// when the overflow happens from a segment callback, mid-run.
func TestSegmentsBeyondInlineBuffer(t *testing.T) {
	eng := newEng()
	p := eng.AddProcessor("n0", 0)
	var order []string
	th := p.NewThread("five", 5)
	mark := func(s string) func() { return func() { order = append(order, s) } }
	th.AddSegment(Segment{Work: 10 * us, OnDone: mark("s1")})
	th.AddSegment(Segment{Work: 10 * us, OnDone: func() {
		order = append(order, "s2")
		th.AddSegment(Segment{Work: 10 * us, OnDone: mark("s5")})
	}})
	th.AddSegment(Segment{Work: 10 * us, OnDone: mark("s3")})
	th.AddSegment(Segment{Work: 10 * us, OnDone: mark("s4")})
	onComplete(th, mark("done"))
	if got := th.remainingWork(); got != 40*us {
		t.Fatalf("RemainingWork = %s, want 40us", got)
	}
	th.Ready()
	eng.RunUntilIdle()
	want := []string{"s1", "s2", "s3", "s4", "s5", "done"}
	if !slices.Equal(order, want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	if eng.Now() != vtime.Time(50*us) || th.cpuTime != 50*us {
		t.Fatalf("finished at %s after %s of CPU, want 50us both", eng.Now(), th.cpuTime)
	}
}

// funcOwner is a test's Owner over closures: name renders the name of
// an InitThread thread, done hears completion and may be nil.
type funcOwner struct {
	name func() string
	done func()
}

func (o *funcOwner) ThreadName() string { return o.name() }

func (o *funcOwner) ThreadDone() {
	if o.done != nil {
		o.done()
	}
}

// onComplete hooks f to the completion of th, a NewThread: its name was
// given, so its owner is never asked for one.
func onComplete(th *Thread, f func()) { th.owner = &funcOwner{done: f} }

// chainRun runs five threads back to back on one processor with a
// switch cost, each readied from its predecessor's completion: fresh
// NewThreads, or one Thread reinitialised in place. It returns the
// switch count and the switch and start records.
func chainRun(recycle bool) (int, []monitor.Event) {
	eng := newEng()
	p := eng.AddProcessor("n0", 10*us)
	var storage Thread
	n := 0
	name := func() string { return "w" + strconv.Itoa(n) }
	var next func()
	next = func() {
		if n == 5 {
			return
		}
		n++
		th := &storage
		if recycle {
			p.InitThread(th, &funcOwner{name, next}, PrioMax-2)
		} else {
			th = p.NewThread(name(), PrioMax-2)
			onComplete(th, next)
		}
		th.AddSegment(Segment{Work: 50 * us})
		th.Ready()
	}
	next()
	eng.RunUntilIdle()
	return p.Switches(), eng.Log().ByKind(monitor.KindContextSwitch, monitor.KindThreadStart)
}

// TestInitThreadIsADifferentThread: storage reinitialised straight
// after its thread finished is a new thread to the dispatcher — it pays
// the switch a fresh NewThread pays, with the same records.
func TestInitThreadIsADifferentThread(t *testing.T) {
	freshSw, freshEv := chainRun(false)
	reusedSw, reusedEv := chainRun(true)
	if freshSw != 5 || reusedSw != freshSw {
		t.Fatalf("switches: fresh %d, recycled %d; want 5 and 5", freshSw, reusedSw)
	}
	if !slices.Equal(freshEv, reusedEv) || len(freshEv) != 10 {
		t.Fatalf("records differ:\nfresh    %v\nrecycled %v", freshEv, reusedEv)
	}
}

// TestLazyNameRenderedOnlyWhenRead: a lazily named thread renders its
// name once, at the first record a log keeps or the first Name call,
// and never for records a full log refuses.
func TestLazyNameRenderedOnlyWhenRead(t *testing.T) {
	full := monitor.NewLog(1)
	full.Recordf(0, monitor.KindActivation, 0, "first", "")
	for _, tc := range []struct {
		log     *monitor.Log
		renders int
	}{{full, 0}, {nil, 0}, {monitor.NewLog(0), 1}} {
		eng := NewEngine(tc.log, 1)
		p := eng.AddProcessor("n0", 10*us)
		renders := 0
		var th Thread
		p.InitThread(&th, &funcOwner{name: func() string { renders++; return "lazy" }}, PrioMax-2)
		th.AddSegment(Segment{Work: 50 * us})
		dropped := tc.log.Dropped()
		th.Ready()
		eng.RunUntilIdle()
		if renders != tc.renders {
			t.Fatalf("log %p: name rendered %d times, want %d", tc.log, renders, tc.renders)
		}
		if tc.log == full && full.Dropped() != dropped+3 {
			t.Fatalf("full log counted %d refused records, want 3 (ready, switch, start)", full.Dropped()-dropped)
		}
		if th.renderName() != "lazy" || th.renderName() != "lazy" || renders != 1 {
			t.Fatalf("Name: %q after %d renders, want \"lazy\" rendered once", th.renderName(), renders)
		}
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
