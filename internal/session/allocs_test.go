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
)

// TestAllocsCallFirstAttempt: a call answered on its first attempt
// costs exactly its Call. The reply timeout is the call's own timer
// with the attempt as payload, so arming it allocates nothing, and
// firing it after the answer is inert. The log is head-mode and full,
// as every long run's is once its window has filled.
func TestAllocsCallFirstAttempt(t *testing.T) {
	log := monitor.NewLog(1)
	log.Recordf(0, monitor.KindActivation, 0, "first", "")
	eng := simkern.NewEngine(log, 1)
	eng.AddProcessor("n", 0)
	s := New(eng)
	var n Counters
	var c *Call
	answer := func() { c.Finish() }
	spec := Spec{Label: "call", Timeout: 1 * ms, MaxRetries: 3, Send: func(int) {}, Counters: &n}
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
	if n.Timeouts != 0 || n.Retries != 0 || s.Live() != 0 {
		t.Fatalf("timeouts=%d retries=%d live=%d, want 0/0/0", n.Timeouts, n.Retries, s.Live())
	}
}
