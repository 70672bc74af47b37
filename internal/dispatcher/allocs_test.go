//go:build !race

// The allocation gates live apart from the other tests because the race
// detector instruments allocation: under -race they would measure the
// detector, so that job does not build them (CI runs them by name in
// build-and-test, step "engine core and record door allocate nothing").
//
// Each gate runs after a warm-up at the default cost book, recorded
// into a full head-mode log — the state of every long run once its
// window has filled — so the count is what an instance or a
// notification owns, not what a log keeps.

package dispatcher_test

import (
	"testing"

	"hades/internal/dispatcher"
	"hades/internal/heug"
	"hades/internal/monitor"
	"hades/internal/netsim"
	"hades/internal/sched"
	"hades/internal/simkern"
	"hades/internal/vtime"
)

func gate(t *testing.T, what string, want float64, cycle func()) {
	t.Helper()
	for i := 0; i < 100; i++ {
		cycle() // warm-up: maps, queues and the event free list reach size
	}
	if n := testing.AllocsPerRun(200, cycle); n != want {
		t.Errorf("%s: %v allocs per run, want %v", what, n, want)
	}
}

// engine returns an engine with n processors at the default cost book's
// switch cost, recording into a head-mode log whose window is already
// full, so it refuses every record that is neither a violation nor a
// fault.
func engine(n int) *simkern.Engine {
	log := monitor.NewLog(1)
	log.Recordf(0, monitor.KindActivation, 0, "first", "")
	eng := simkern.NewEngine(log, 1)
	for i := 0; i < n; i++ {
		eng.AddProcessor("n", dispatcher.DefaultCostBook().SwitchCost)
	}
	return eng
}

// TestAllocsInstance: one EDF+SRP instance of a 3-stage pipeline across
// two nodes, from activation to completion, costs what the instance
// owns and nothing per notification, watchdog or remote crossing: its
// block (1: the record, the three units with their kernel threads, the
// index) and its one name string (1). Every thread's hooks are
// one-pointer owners, the held list is the task's, the deadline and
// omission watchdogs fire their owners from recycled records, and a
// crossing's datagram is the destination unit's pointer.
func TestAllocsInstance(t *testing.T) {
	eng := engine(2)
	net := netsim.New(eng, netsim.DefaultConfig())
	net.Connect(0, 1, 100*us, 200*us)
	d := dispatcher.New(eng, net, dispatcher.DefaultCostBook())
	app := d.RegisterApp("rt", sched.NewEDF(20*us), sched.NewSRP())
	app.AddTask(heug.NewTask("pipe", heug.AperiodicLaw()).
		WithDeadline(18*ms).
		Code("sample", heug.CodeEU{Node: 0, WCET: 400 * us,
			Resources: []heug.ResourceReq{{Resource: "S0", Mode: heug.Exclusive}}}).
		Code("fuse", heug.CodeEU{Node: 1, WCET: 700 * us}).
		Code("commit", heug.CodeEU{Node: 0, WCET: 300 * us}).
		Precede("sample", "fuse").
		Precede("fuse", "commit").
		MustBuild())
	app.Seal()
	gate(t, "EDF+SRP pipeline instance", 2, func() {
		if _, err := d.Activate("pipe"); err != nil {
			t.Fatal(err)
		}
		eng.Run(eng.Now().Add(20 * ms))
	})
	if st := d.Stats(); st.Completions != st.Activations || st.DeadlineMisses != 0 {
		t.Fatalf("%d of %d instances completed, %d missed", st.Completions, st.Activations, st.DeadlineMisses)
	}
}

// TestAllocsSpuriInstance: the instance that makes up most of
// rt-pipeline, a Spuri task under EDF+SRP (Figure 3's chain: three
// units on one node, the middle one holding the resource), costs its
// block and its name string (2), nothing else.
func TestAllocsSpuriInstance(t *testing.T) {
	eng := engine(1)
	d := dispatcher.New(eng, nil, dispatcher.DefaultCostBook())
	app := d.RegisterApp("rt", sched.NewEDF(20*us), sched.NewSRP())
	task, err := heug.SpuriTask{Name: "fast0", Node: 0, Resource: "S0",
		CBefore: 200 * us, CS: 150 * us, CAfter: 250 * us,
		Deadline: 5 * ms, PseudoPeriod: 5 * ms}.ToHEUG()
	if err != nil {
		t.Fatal(err)
	}
	app.AddTask(task)
	app.Seal()
	gate(t, "EDF+SRP Spuri instance", 2, func() {
		if _, err := d.Activate("fast0"); err != nil {
			t.Fatal(err)
		}
		eng.Run(eng.Now().Add(5 * ms))
	})
	if st := d.Stats(); st.Completions != st.Activations || st.DeadlineMisses != 0 || len(task.EUs) != 3 {
		t.Fatalf("%d of %d instances of %d units completed, %d missed", st.Completions, st.Activations, len(task.EUs), st.DeadlineMisses)
	}
}

// idle is a scheduler that pays a notification's cost and decides
// nothing, so a gate on it counts the host's work alone.
type idle struct{}

func (idle) Name() string                                         { return "idle" }
func (idle) Cost() vtime.Duration                                 { return 20 * us }
func (idle) Wants(dispatcher.NotifKind) bool                      { return true }
func (idle) Init([]*heug.Task)                                    {}
func (idle) Handle(dispatcher.Notification, dispatcher.Primitive) {}

// TestAllocsSchedHostNotification: a notification processed by a warm
// scheduler host costs nothing — the host reinitialises its one thread,
// owns it, and bound its segment hook once.
func TestAllocsSchedHostNotification(t *testing.T) {
	eng := engine(1)
	d := dispatcher.New(eng, nil, dispatcher.DefaultCostBook())
	app := d.RegisterApp("rt", idle{}, nil)
	app.AddTask(heug.NewTask("t", heug.AperiodicLaw()).
		Code("eu", heug.CodeEU{Node: 0, WCET: 100 * us}).
		MustBuild())
	app.Seal()
	inst, err := d.Activate("t")
	if err != nil {
		t.Fatal(err)
	}
	th := inst.Threads[0]
	gate(t, "warm scheduler host notification", 0, func() {
		app.Notify(dispatcher.NotifTrm, th)
		eng.Run(eng.Now().Add(ms))
	})
	if !th.Finished() {
		t.Fatal("the unit never ran between notifications")
	}
}

// TestAllocsBlockedGrant: a holder and a waiter refused its resource,
// one DM node, under plain locking and under SRP, cost the two
// instances' blocks and name strings (4) and nothing else: the refusal
// checks the no-hold-and-wait rule over a scratch list of holders, and
// the release wakes the waiter from a scratch list too.
func TestAllocsBlockedGrant(t *testing.T) {
	for _, tc := range holdPairPolicies {
		t.Run(tc.name, func(t *testing.T) {
			eng := engine(1)
			d := holdPair(eng, tc.pol())
			cycle := func() {
				if _, err := d.Activate("holder"); err != nil {
					t.Fatal(err)
				}
				waiter, err := d.Activate("waiter")
				if err != nil {
					t.Fatal(err)
				}
				eng.Run(eng.Now().Add(ms))
				if waiter.Threads[0].Started() {
					t.Fatal("the waiter started while the holder held R")
				}
				eng.Run(eng.Now().Add(20 * ms))
			}
			gate(t, "a refused grant and its wake, "+tc.name, 4, cycle)
			if st := d.Stats(); st.Completions != st.Activations || st.DeadlineMisses != 0 || st.Deadlocks != 0 {
				t.Fatalf("%d of %d instances completed, %d missed, %d deadlocks", st.Completions, st.Activations, st.DeadlineMisses, st.Deadlocks)
			}
		})
	}
}
