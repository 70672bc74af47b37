package session

import (
	"testing"

	"hades/internal/eventq"
	"hades/internal/monitor"
	"hades/internal/simkern"
	"hades/internal/vtime"
)

const (
	us = vtime.Microsecond
	ms = vtime.Millisecond
)

func testEngine() *simkern.Engine {
	eng := simkern.NewEngine(monitor.NewLog(0), 1)
	eng.AddProcessor("n", 0)
	return eng
}

// testOwner is a call's owner in the tests: it counts its sends, the
// labels the engine asked for and its fail-fast verdicts.
type testOwner struct {
	sends, labels, fails int
	onSend               func(attempt int)
}

func (o *testOwner) Send(_ uint64, attempt int) {
	o.sends++
	if o.onSend != nil {
		o.onSend(attempt)
	}
}

func (o *testOwner) Label(uint64) string { o.labels++; return "call" }
func (o *testOwner) Failed(uint64)       { o.fails++ }

// testSession is an engine at a short calibration: 1ms reply timeouts
// and the given retry budget.
func testSession(eng *simkern.Engine, retries int) *Engine {
	s := New(eng)
	s.timeout, s.maxRetries = 1*ms, retries
	return s
}

func TestCallRetriesThenParksAndResumesOnPoke(t *testing.T) {
	eng := testEngine()
	s := testSession(eng, 2)
	var o testOwner
	var n Counters
	s.Start(&o, 0, 0, &n)
	// No reply ever arrives: 1 initial + 2 retries, then park.
	eng.Run(vtime.Time(4 * ms))
	if o.sends != 3 || n.Retries != 2 || n.Queued != 1 {
		t.Fatalf("sends=%d retries=%d parks=%d, want 3/2/1", o.sends, n.Retries, n.Queued)
	}
	if n.Timeouts != 3 {
		t.Fatalf("timeouts=%d, want 3", n.Timeouts)
	}
	// A poke (view install) resumes with a fresh budget.
	eng.After(0, eventq.ClassApp, func() { s.poke("view") })
	eng.Run(vtime.Time(4500 * us))
	if n.Resubmitted != 1 || o.sends != 4 {
		t.Fatalf("resubmits=%d sends=%d after poke, want 1/4", n.Resubmitted, o.sends)
	}
}

func TestParkedCallResumesOnBackoffWithoutPoke(t *testing.T) {
	eng := testEngine()
	s := testSession(eng, 1)
	var o testOwner
	var n Counters
	s.Start(&o, 0, 0, &n)
	// Parks at 2ms; the 5×timeout backoff re-probes at 7ms.
	eng.Run(vtime.Time(10 * ms))
	if n.Resubmitted == 0 {
		t.Fatalf("parked call never resumed via backoff (sends=%d)", o.sends)
	}
}

func TestFinishInvalidatesPendingTimeout(t *testing.T) {
	eng := testEngine()
	s := testSession(eng, 3)
	var o testOwner
	var n Counters
	h := s.Start(&o, 0, 0, &n)
	eng.After(500*us, eventq.ClassApp, func() { s.Finish(h) })
	eng.Run(vtime.Time(10 * ms))
	if n.Timeouts != 0 {
		t.Fatalf("timeouts=%d after Finish, want 0", n.Timeouts)
	}
	if s.live(h) != nil || s.Inflight(h) || s.Attempt(h) != 0 {
		t.Fatal("call not finished")
	}
	if got := s.Live(); got != 0 {
		t.Fatalf("%d calls live, want 0", got)
	}
}

func TestRedirectDoesNotConsumeRetryBudget(t *testing.T) {
	eng := testEngine()
	s := testSession(eng, 1)
	var o testOwner
	var n Counters
	h := s.Start(&o, 0, 0, &n)
	// Redirect three times quickly: each re-dispatches without touching
	// the retry counter.
	for i := 1; i <= 3; i++ {
		eng.At(vtime.Time(vtime.Duration(i)*100*us), eventq.ClassApp, func() { s.Redirect(h, "redirect") })
	}
	eng.Run(vtime.Time(350 * us))
	if o.sends != 4 || n.Retries != 0 || n.Redirects != 3 {
		t.Fatalf("sends=%d retries=%d redirects=%d, want 4/0/3", o.sends, n.Retries, n.Redirects)
	}
	// Attempts 1–3 were armed at 0, 100 and 200us and superseded: their
	// timeouts come due at 1000, 1100 and 1200us and must be inert.
	eng.Run(vtime.Time(1250 * us))
	if n.Timeouts != 0 || n.Retries != 0 || o.sends != 4 || s.Attempt(h) != 4 {
		t.Fatalf("stale timeouts fired: timeouts=%d retries=%d sends=%d attempt=%d, want 0/0/4/4",
			n.Timeouts, n.Retries, o.sends, s.Attempt(h))
	}
	// The live attempt's timeout (armed at 300us) is the one that counts.
	eng.Run(vtime.Time(1350 * us))
	if n.Timeouts != 1 || n.Retries != 1 || o.sends != 5 || s.Attempt(h) != 5 {
		t.Fatalf("live timeout: timeouts=%d retries=%d sends=%d attempt=%d, want 1/1/5/5",
			n.Timeouts, n.Retries, o.sends, s.Attempt(h))
	}
}

func TestFailFastAbandonsAfterBudget(t *testing.T) {
	eng := testEngine()
	s := NewFailFast(eng)
	s.timeout, s.maxRetries = 1*ms, 1
	var o testOwner
	var n Counters
	h := s.Start(&o, 0, 0, &n)
	eng.Run(vtime.Time(10 * ms))
	if o.fails != 1 || n.Queued != 0 || s.live(h) != nil {
		t.Fatalf("fails=%d parks=%d live=%v, want 1/0/false", o.fails, n.Queued, s.live(h) != nil)
	}
	if o.sends != 2 || s.Live() != 0 {
		t.Fatalf("sends=%d live=%d, want 2/0", o.sends, s.Live())
	}
}

// TestFinishWhileParkedSendsNothing: a call its owner finishes while
// it is parked is over — the backoff timer armed at the park and a
// later poke neither send nor count nor record a resubmission.
func TestFinishWhileParkedSendsNothing(t *testing.T) {
	eng := testEngine()
	s := testSession(eng, 1)
	var o testOwner
	var n Counters
	h := s.Start(&o, 0, 0, &n)
	// Parks at 2ms with its backoff armed for 7ms.
	eng.After(3*ms, eventq.ClassApp, func() { s.Finish(h) })
	eng.After(4*ms, eventq.ClassApp, func() { s.poke("view") })
	eng.Run(vtime.Time(20 * ms))
	if o.sends != 2 || n.Queued != 1 || n.Resubmitted != 0 {
		t.Fatalf("sends=%d parks=%d resubmits=%d, want 2/1/0", o.sends, n.Queued, n.Resubmitted)
	}
	if got := eng.Log().ByKind(monitor.KindResubmit); len(got) != 0 {
		t.Fatalf("resubmit records after Finish: %v", got)
	}
	if got := s.Live(); got != 0 {
		t.Fatalf("%d calls live, want 0", got)
	}
}

func TestExplicitFailConsumesBudgetLikeTimeout(t *testing.T) {
	eng := testEngine()
	s := New(eng)
	s.maxRetries = 1
	var o testOwner
	var n Counters
	h := s.Start(&o, 0, 0, &n)
	eng.After(1*ms, eventq.ClassApp, func() { s.Fail(h, "blocked") })
	eng.After(2*ms, eventq.ClassApp, func() { s.Fail(h, "blocked") })
	eng.Run(vtime.Time(4 * ms))
	if o.sends != 2 || n.Queued != 1 || n.Blocked != 2 || n.Timeouts != 0 {
		t.Fatalf("sends=%d parks=%d blocked=%d timeouts=%d, want 2/1/2/0", o.sends, n.Queued, n.Blocked, n.Timeouts)
	}
}

// TestCounters drives one call through each path of the state machine
// and checks the single observer counted exactly that path; a call
// naming no Counters runs the same discipline unobserved.
func TestCounters(t *testing.T) {
	cases := []struct {
		name  string
		drive func(eng *simkern.Engine, s *Engine, h Handle)
		until vtime.Duration
		want  Counters
	}{
		{"answered in time", func(eng *simkern.Engine, s *Engine, h Handle) {
			eng.After(500*us, eventq.ClassApp, func() { s.Finish(h) })
		}, 10 * ms, Counters{}},
		{"one timeout, one retry", func(eng *simkern.Engine, s *Engine, h Handle) {
			eng.After(1500*us, eventq.ClassApp, func() { s.Finish(h) })
		}, 10 * ms, Counters{Timeouts: 1, Retries: 1}},
		{"budget exhausted parks", func(*simkern.Engine, *Engine, Handle) {},
			3500 * us, Counters{Timeouts: 3, Retries: 2, Queued: 1}},
		{"poke resubmits the parked call", func(eng *simkern.Engine, s *Engine, h Handle) {
			eng.After(3200*us, eventq.ClassApp, func() { s.poke("view") })
			eng.After(3400*us, eventq.ClassApp, func() { s.Finish(h) })
		}, 10 * ms, Counters{Timeouts: 3, Retries: 2, Queued: 1, Resubmitted: 1}},
		{"redirect keeps the budget", func(eng *simkern.Engine, s *Engine, h Handle) {
			eng.After(200*us, eventq.ClassApp, func() { s.Redirect(h, "server: n0 -> n1") })
			eng.After(400*us, eventq.ClassApp, func() { s.Finish(h) })
		}, 10 * ms, Counters{Redirects: 1}},
		{"blocked verdict consumes a retry", func(eng *simkern.Engine, s *Engine, h Handle) {
			eng.After(200*us, eventq.ClassApp, func() { s.Fail(h, "blocked") })
			eng.After(400*us, eventq.ClassApp, func() { s.Finish(h) })
		}, 10 * ms, Counters{Blocked: 1, Retries: 1}},
		{"finished while parked resubmits nothing", func(eng *simkern.Engine, s *Engine, h Handle) {
			eng.After(3200*us, eventq.ClassApp, func() { s.Finish(h) })
			eng.After(3400*us, eventq.ClassApp, func() { s.poke("view") })
		}, 20 * ms, Counters{Timeouts: 3, Retries: 2, Queued: 1}},
		{"verdicts on a parked call count nothing", func(eng *simkern.Engine, s *Engine, h Handle) {
			eng.After(3200*us, eventq.ClassApp, func() { s.Redirect(h, "late"); s.Fail(h, "late") })
		}, 3500 * us, Counters{Timeouts: 3, Retries: 2, Queued: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := testEngine()
			s := testSession(eng, 2)
			var got Counters
			s.Start(&testOwner{}, 0, 0, nil) // unobserved twin: same path, no Counters
			tc.drive(eng, s, s.Start(&testOwner{}, 0, 0, &got))
			eng.Run(vtime.Time(tc.until))
			if got != tc.want {
				t.Fatalf("counters %+v, want %+v", got, tc.want)
			}
		})
	}
}

// TestZeroSpecSelectsTheCalibration: a Spec that names no timeout and
// no budget runs at the one session calibration, the one every Start
// runs at.
func TestZeroSpecSelectsTheCalibration(t *testing.T) {
	eng := testEngine()
	s := New(eng)
	var n Counters
	s.Go(Spec{Label: "call", Send: func(int) {}})
	s.Start(&testOwner{}, 0, 0, &n)
	eng.Run(vtime.Time(DefaultTimeout*vtime.Duration(DefaultMaxRetries+1)) - 1)
	for _, c := range []Counters{s.uncounted, n} {
		if c.Timeouts != DefaultMaxRetries || c.Queued != 0 {
			t.Fatalf("before the last timeout: %+v, want %d timeouts and no park", c, DefaultMaxRetries)
		}
	}
	eng.Run(vtime.Time(DefaultTimeout * vtime.Duration(DefaultMaxRetries+1)))
	for _, c := range []Counters{s.uncounted, n} {
		if c.Retries != DefaultMaxRetries || c.Queued != 1 {
			t.Fatalf("after the last timeout: %+v, want %d retries then one park", c, DefaultMaxRetries)
		}
	}
}

// TestGoCompactsWithoutPoke: a fault-free run never pokes (no views, no
// heals), so starting a call must itself let go of retired calls — the
// backing slice tracks the live set, not the run's history, and the
// Start slots recycle instead of growing with it.
func TestGoCompactsWithoutPoke(t *testing.T) {
	eng := testEngine()
	s := New(eng)
	const total = 10_000
	owners := make([]testOwner, total)
	for i := 0; i < total; i++ {
		eng.At(vtime.Time(vtime.Duration(i)*20*us), eventq.ClassApp, func() {
			if i%2 == 0 {
				var c *Call
				c = s.Go(Spec{Label: "call", Send: func(int) {
					eng.After(300*us, eventq.ClassApp, func() { c.Finish() })
				}})
				return
			}
			var h Handle
			owners[i].onSend = func(int) { eng.After(300*us, eventq.ClassApp, func() { s.Finish(h) }) }
			h = s.Start(&owners[i], 0, 0, nil)
		})
	}
	peak := 0
	eng.At(vtime.Time(total/2*20*us), eventq.ClassApp, func() { peak = cap(s.calls) })
	eng.RunUntilIdle()
	if s.Live() != 0 {
		t.Fatalf("%d calls left live", s.Live())
	}
	// 300us of 20us arrivals keeps ~15 calls live; the slice may hold
	// twice that plus the sweep slack, doubled once by append.
	const bound = 2 * (2*16 + 64)
	if peak > bound || cap(s.calls) > bound {
		t.Fatalf("backing slice holds %d slots mid-run, %d at the end, for ~15 live calls (want <= %d)", peak, cap(s.calls), bound)
	}
	if slots := len(s.free) + len(s.calls); slots > bound {
		t.Fatalf("%d Start slots for ~8 live ones (want <= %d)", slots, bound)
	}
	for _, c := range s.calls[len(s.calls):cap(s.calls)] {
		if c != nil {
			t.Fatal("swept slot still references a retired call")
		}
	}
}

// TestStaleHandleSparesSuccessor: once a finished call's slot serves
// another call, the old handle's Finish, Redirect and Fail do nothing,
// and the old call's armed reply timer does not time out its successor
// — the slot's attempt counter kept running.
func TestStaleHandleSparesSuccessor(t *testing.T) {
	eng := testEngine()
	s := testSession(eng, 3)
	var a, b testOwner
	var n Counters
	old := s.Start(&a, 0, 0, &n) // its timer comes due at 1000us
	var cur Handle
	eng.After(100*us, eventq.ClassApp, func() { s.Finish(old) })
	eng.After(200*us, eventq.ClassApp, func() { s.poke("view") }) // sweeps the slot free
	eng.After(300*us, eventq.ClassApp, func() { cur = s.Start(&b, 0, 0, &n) })
	eng.Run(vtime.Time(400 * us))
	if cur.slot != old.slot || cur == old {
		t.Fatalf("the successor did not reuse the finished call's slot: %+v then %+v", old, cur)
	}
	s.Finish(old)
	s.Redirect(old, "stale")
	s.Fail(old, "stale")
	if !s.Inflight(cur) || b.sends != 1 || n != (Counters{}) || s.Inflight(old) || s.Attempt(old) != 0 {
		t.Fatalf("stale handle reached the successor: inflight=%v sends=%d counters=%+v", s.Inflight(cur), b.sends, n)
	}
	eng.Run(vtime.Time(1200 * us)) // past the old timer, short of the successor's (1300us)
	if !s.Inflight(cur) || b.sends != 1 || n.Timeouts != 0 {
		t.Fatalf("stale timer fired the successor: sends=%d timeouts=%d", b.sends, n.Timeouts)
	}
	eng.Run(vtime.Time(1350 * us)) // the successor's own timer counts
	if b.sends != 2 || n.Timeouts != 1 || a.sends != 1 {
		t.Fatalf("successor's timer: sends=%d timeouts=%d old sends=%d, want 2/1/1", b.sends, n.Timeouts, a.sends)
	}
	s.Finish(cur)
	if s.Live() != 0 || s.Inflight(Handle{}) {
		t.Fatalf("%d calls live after both finished, or the zero Handle names one", s.Live())
	}
}

// TestLabelOnlyForKeptRecords: a call forced through retries, a park
// and a resubmission asks its owner for no label while the window is
// full, and names every Retry and Resubmit record with it while the
// window is open.
func TestLabelOnlyForKeptRecords(t *testing.T) {
	drive := func(log *monitor.Log) (*testOwner, *simkern.Engine) {
		eng := simkern.NewEngine(log, 1)
		eng.AddProcessor("n", 0)
		s := testSession(eng, 2)
		var o testOwner
		h := s.Start(&o, 0, 0, nil)
		eng.After(3500*us, eventq.ClassApp, func() { s.poke("view") })
		eng.After(3700*us, eventq.ClassApp, func() { s.Redirect(h, "server: n0 -> n1") })
		eng.After(3900*us, eventq.ClassApp, func() { s.Finish(h) })
		eng.Run(vtime.Time(10 * ms))
		return &o, eng
	}
	full := monitor.NewLog(1)
	full.Recordf(0, monitor.KindActivation, 0, "first", "")
	if o, _ := drive(full); o.labels != 0 || o.sends != 5 {
		t.Fatalf("full window: %d labels for %d sends, want 0 for 5", o.labels, o.sends)
	}
	o, eng := drive(monitor.NewLog(0))
	var kept int
	for _, k := range []monitor.Kind{monitor.KindRetry, monitor.KindResubmit, monitor.KindRedirect} {
		for _, ev := range eng.Log().ByKind(k) {
			kept++
			if ev.Subject != "call" {
				t.Errorf("%v record names %q, want the owner's label %q", k, ev.Subject, "call")
			}
		}
	}
	// Two retries and the park, the resubmission, the redirect.
	if kept != 5 || o.labels != kept {
		t.Fatalf("open window: %d records, %d labels, want 5 of each", kept, o.labels)
	}
}

func TestBatcherUnbatchedFlushesImmediately(t *testing.T) {
	eng := testEngine()
	var emitted [][]int
	b := NewBatcher[int](eng, Params{}, "b", 0, func(_ string, items []int) {
		emitted = append(emitted, items)
	})
	for i := 0; i < 3; i++ {
		b.Add("s0", i)
		b.Complete("s0")
	}
	if len(emitted) != 3 {
		t.Fatalf("emitted %d batches, want 3 singletons", len(emitted))
	}
	for _, e := range emitted {
		if len(e) != 1 {
			t.Fatalf("unbatched emit carried %d items", len(e))
		}
	}
}

func TestBatcherCoalescesToMaxBatch(t *testing.T) {
	eng := testEngine()
	var emitted [][]int
	b := NewBatcher[int](eng, Params{MaxBatch: 4}, "b", 0, func(_ string, items []int) {
		emitted = append(emitted, items)
	})
	eng.After(0, eventq.ClassApp, func() {
		for i := 0; i < 4; i++ {
			b.Add("s0", i)
		}
	})
	eng.Run(vtime.Time(1 * ms))
	if len(emitted) != 1 || len(emitted[0]) != 4 {
		t.Fatalf("emitted=%v, want one batch of 4", emitted)
	}
	if b.Stats.FullFlushes != 1 || b.Stats.MaxBatchOps != 4 {
		t.Fatalf("stats=%+v, want 1 full flush of 4", b.Stats)
	}
}

func TestBatcherTimerFlushesPartialBatch(t *testing.T) {
	eng := testEngine()
	var emitted [][]int
	b := NewBatcher[int](eng, Params{MaxBatch: 8, FlushInterval: 200 * us}, "b", 0,
		func(_ string, items []int) { emitted = append(emitted, items) })
	eng.After(0, eventq.ClassApp, func() {
		b.Add("s0", 1)
		b.Add("s0", 2)
	})
	eng.Run(vtime.Time(100 * us))
	if len(emitted) != 0 {
		t.Fatal("partial batch flushed before the interval")
	}
	eng.Run(vtime.Time(1 * ms))
	if len(emitted) != 1 || len(emitted[0]) != 2 {
		t.Fatalf("emitted=%v, want one timer flush of 2", emitted)
	}
	if b.Stats.TimerFlushes != 1 {
		t.Fatalf("stats=%+v, want 1 timer flush", b.Stats)
	}
}

func TestBatcherPipelineDepthStallsAndDrains(t *testing.T) {
	eng := testEngine()
	var emitted [][]int
	b := NewBatcher[int](eng, Params{MaxBatch: 2, PipelineDepth: 2}, "b", 0,
		func(_ string, items []int) { emitted = append(emitted, items) })
	eng.After(0, eventq.ClassApp, func() {
		for i := 0; i < 8; i++ {
			b.Add("s0", i)
		}
	})
	eng.Run(vtime.Time(1 * ms))
	// 8 items / batch 2 = 4 batches, but only 2 slots: two emit, two wait.
	if len(emitted) != 2 || b.lane("s0").inflight != 2 {
		t.Fatalf("emitted=%d inflight=%d, want 2/2", len(emitted), b.lane("s0").inflight)
	}
	if b.Stats.Stalls == 0 {
		t.Fatal("depth-limited flush recorded no stall")
	}
	eng.After(0, eventq.ClassApp, func() { b.Complete("s0"); b.Complete("s0") })
	eng.Run(vtime.Time(2 * ms))
	if len(emitted) != 4 {
		t.Fatalf("emitted=%d after completions, want 4", len(emitted))
	}
	if got := b.MaxInflight()["s0"]; got != 2 {
		t.Fatalf("max inflight %d, want 2", got)
	}
}

// TestBatcherEagerIdleGroupCommit pins the group-commit flush policy:
// an idle lane flushes at once (no timer wait), items arriving while a
// round is in flight coalesce until Complete releases them, and the
// flush timer forces a round out past the depth bound when a
// completion is lost.
func TestBatcherEagerIdleGroupCommit(t *testing.T) {
	eng := testEngine()
	var emitted [][]int
	b := NewBatcher[int](eng, Params{MaxBatch: 4, FlushInterval: 500 * us, PipelineDepth: 1}, "b", 0,
		func(_ string, items []int) { emitted = append(emitted, items) })
	b.EagerIdle = true
	eng.After(0, eventq.ClassApp, func() {
		b.Add("dec", 1) // idle → flushes immediately, round 1 in flight
		b.Add("dec", 2) // coalesce behind round 1
		b.Add("dec", 3)
	})
	eng.Run(vtime.Time(100 * us))
	if len(emitted) != 1 || len(emitted[0]) != 1 {
		t.Fatalf("emitted=%v, want an immediate singleton round", emitted)
	}
	eng.After(0, eventq.ClassApp, func() { b.Complete("dec") })
	eng.Run(vtime.Time(200 * us))
	if len(emitted) != 2 || len(emitted[1]) != 2 {
		t.Fatalf("emitted=%v, want the coalesced pair released by Complete", emitted)
	}
	// Lose round 2's completion: the next item waits for the timer,
	// which forces a flush past the depth bound instead of wedging.
	eng.After(0, eventq.ClassApp, func() { b.Add("dec", 4) })
	eng.Run(vtime.Time(300 * us))
	if len(emitted) != 2 {
		t.Fatalf("emitted=%v, item flushed while a round was in flight", emitted)
	}
	eng.Run(vtime.Time(1 * ms))
	if len(emitted) != 3 || len(emitted[2]) != 1 {
		t.Fatalf("emitted=%v, want the timer-forced fallback round", emitted)
	}
	if b.Stats.TimerFlushes != 1 {
		t.Fatalf("stats=%+v, want 1 timer flush (the fallback)", b.Stats)
	}
}

func TestBatcherLanesAreIndependent(t *testing.T) {
	eng := testEngine()
	byLane := map[string]int{}
	b := NewBatcher[int](eng, Params{MaxBatch: 2}, "b", 0,
		func(lane string, items []int) { byLane[lane] += len(items) })
	eng.After(0, eventq.ClassApp, func() {
		b.Add("s0", 1)
		b.Add("s1", 2)
		b.Add("s0", 3) // fills s0's batch
	})
	eng.Run(vtime.Time(10 * ms))
	if byLane["s0"] != 2 {
		t.Fatalf("s0 got %d ops, want 2 (full flush)", byLane["s0"])
	}
	if byLane["s1"] != 1 {
		t.Fatalf("s1 got %d ops, want 1 (timer flush)", byLane["s1"])
	}
}

func TestBatchStatsHistString(t *testing.T) {
	var s BatchStats
	if s.HistString() != "-" {
		t.Fatalf("empty hist = %q", s.HistString())
	}
	s.record(1)
	s.record(4)
	s.record(4)
	if got := s.HistString(); got != "1:1 4:2" {
		t.Fatalf("hist = %q, want \"1:1 4:2\"", got)
	}
}

func TestParamsDefaults(t *testing.T) {
	var p Params
	if p.batching() || p.maxBatch() != 1 {
		t.Fatal("zero Params must be unbatched")
	}
	p = Params{MaxBatch: 4}
	if !p.batching() || p.flushInterval() != DefaultFlushInterval {
		t.Fatal("MaxBatch>1 must enable batching with the default interval")
	}
}
