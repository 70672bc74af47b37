//go:build !race

// The allocation gates live apart from the other tests because the race
// detector instruments allocation: under -race they would measure the
// detector, so that job does not build them (CI runs them by name in
// build-and-test, step "engine core and record door allocate nothing").

package session

import (
	"testing"

	"hades/internal/eventq"
	"hades/internal/monitor"
	"hades/internal/simkern"
	"hades/internal/trace"
)

// TestAllocsOwnerCallFirstAttempt: a warm call its owner starts and
// answers on its first attempt allocates nothing. The call takes a slot
// swept free by an earlier start, the owner is named only for a record
// the log keeps (the log is head-mode and full, as every long run's is
// once its window has filled), and the reply timeout is the call's own
// timer with the attempt as payload, so arming it allocates nothing and
// firing it after the answer is inert.
func TestAllocsOwnerCallFirstAttempt(t *testing.T) {
	log := monitor.NewLog(1)
	log.Recordf(0, monitor.KindActivation, 0, "first", "")
	eng := simkern.NewEngine(log, 1)
	eng.AddProcessor("n", 0)
	s := New(eng)
	var n Counters
	o := &testOwner{}
	var h Handle
	answer := eventq.Func(func() { s.Finish(h) })
	cycle := func() {
		h = s.Start(o, 0, 0, &n)
		eng.Arm(eng.Now().Add(300*us), eventq.ClassApp, answer, 0)
		eng.Run(eng.Now().Add(DefaultTimeout + ms)) // the answer, then the inert timeout
	}
	for i := 0; i < 100; i++ {
		cycle() // warm-up: the call list, the free slots and the event free list reach size
	}
	if got := testing.AllocsPerRun(200, cycle); got != 0 {
		t.Errorf("owner call answered on its first attempt: %v allocs per run, want 0", got)
	}
	if n.Timeouts != 0 || n.Retries != 0 || s.Live() != 0 || o.labels != 0 {
		t.Fatalf("timeouts=%d retries=%d live=%d labels=%d, want 0/0/0/0", n.Timeouts, n.Retries, s.Live(), o.labels)
	}
}

// tracedOwner is a testOwner carrying two causal traces.
type tracedOwner struct{ testOwner }

func (*tracedOwner) Trace(_ uint64, i int) (trace.Ref, bool) { return trace.Ref{}, i < 2 }

// TestAllocsOwnerCallRetried: a warm call that times out, retries and
// is answered costs nothing either: its retry record is refused before
// the owner is named, and the retry instant reaches each trace the
// owner hands out through a concrete Ref, so its arguments stay on the
// stack.
func TestAllocsOwnerCallRetried(t *testing.T) {
	log := monitor.NewLog(1)
	log.Recordf(0, monitor.KindActivation, 0, "first", "")
	eng := simkern.NewEngine(log, 1)
	eng.AddProcessor("n", 0)
	s := New(eng)
	var n Counters
	o := &tracedOwner{}
	var h Handle
	answer := eventq.Func(func() { s.Finish(h) })
	cycle := func() {
		h = s.Start(o, 0, 0, &n)
		eng.Arm(eng.Now().Add(DefaultTimeout+300*us), eventq.ClassApp, answer, 0)
		eng.Run(eng.Now().Add(2*DefaultTimeout + ms)) // a timeout and its retry, the answer, the inert timeout
	}
	for i := 0; i < 100; i++ {
		cycle()
	}
	if got := testing.AllocsPerRun(200, cycle); got != 0 {
		t.Errorf("owner call retried once: %v allocs per run, want 0", got)
	}
	if n.Retries != 301 || o.sends != 602 || o.labels != 0 || s.Live() != 0 {
		t.Fatalf("retries=%d sends=%d labels=%d live=%d, want 301/602/0/0", n.Retries, o.sends, o.labels, s.Live())
	}
}

// TestAllocsCallFirstAttempt: the closure adapter's call answered on
// its first attempt costs exactly its Call, which holds its Spec; the
// rest of the path is the owner call's.
func TestAllocsCallFirstAttempt(t *testing.T) {
	log := monitor.NewLog(1)
	log.Recordf(0, monitor.KindActivation, 0, "first", "")
	eng := simkern.NewEngine(log, 1)
	eng.AddProcessor("n", 0)
	s := New(eng)
	var c *Call
	answer := func() { c.Finish() }
	spec := Spec{Label: "call", Timeout: 1 * ms, MaxRetries: 3, Send: func(int) {}}
	cycle := func() {
		c = s.Go(spec)
		eng.After(300*us, eventq.ClassApp, answer)
		eng.Run(eng.Now().Add(2 * ms)) // the answer, then the inert timeout
	}
	for i := 0; i < 100; i++ {
		cycle() // warm-up: the call list and the event free list reach size
	}
	if got := testing.AllocsPerRun(200, cycle); got != 1 {
		t.Errorf("call answered on its first attempt: %v allocs per run, want 1 (its Call)", got)
	}
	if s.uncounted.Timeouts != 0 || s.uncounted.Retries != 0 || s.Live() != 0 {
		t.Fatalf("timeouts=%d retries=%d live=%d, want 0/0/0", s.uncounted.Timeouts, s.uncounted.Retries, s.Live())
	}
}
