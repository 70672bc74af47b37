package dispatcher

import (
	"testing"
	"unsafe"

	"hades/internal/eventq"
	"hades/internal/heug"
	"hades/internal/monitor"
	"hades/internal/netsim"
	"hades/internal/simkern"
	"hades/internal/vtime"
)

// The watchdogs ride recycled records: once one is cancelled, its
// record goes back to the free list when the dead slot surfaces at the
// heap's root (at its instant at the latest), and the next event
// scheduled takes it — here one at the watchdog's own instant and
// class. A handle left on the record (here cancelled again, late) must
// not reach that event, and the cancelled watchdog must not fire.

// passive decides nothing and wants no notification.
type passive struct{}

func (passive) Name() string                   { return "passive" }
func (passive) Cost() vtime.Duration           { return 0 }
func (passive) Wants(NotifKind) bool           { return false }
func (passive) Init([]*heug.Task)              {}
func (passive) Handle(Notification, Primitive) {}

// record is the event record a handle names: the handle's first word.
func record(h eventq.Handle) unsafe.Pointer { return *(*unsafe.Pointer)(unsafe.Pointer(&h)) }

// reuseAt schedules, at instant at, an event that arms a probe at the
// same instant and class as a watchdog there, then cancels the
// watchdog's stale handle; it returns where the probe's handle lands.
func reuseAt(eng *simkern.Engine, at vtime.Time, stale eventq.Handle, probe eventq.Handler) *eventq.Handle {
	var reuser eventq.Handle
	eng.At(at, eventq.ClassApp, func() {
		reuser = eng.Arm(at, eventq.ClassDispatch, probe, 1)
		eng.Cancel(stale)
	})
	return &reuser
}

type probe struct{ fired int }

func (p *probe) Fire(uint64) { p.fired++ }

func TestCancelledDeadlineWatchdogRecordReused(t *testing.T) {
	eng := simkern.NewEngine(monitor.NewLog(0), 1)
	eng.AddProcessor("n0", 0)
	d := New(eng, nil, CostBook{})
	app := d.RegisterApp("rt", passive{}, nil)
	app.AddTask(heug.NewTask("t", heug.AperiodicLaw()).
		WithDeadline(10*vtime.Millisecond).
		Code("eu", heug.CodeEU{Node: 0, WCET: 100 * vtime.Microsecond}).
		MustBuild())
	app.Seal()
	inst, err := d.Activate("t")
	if err != nil {
		t.Fatal(err)
	}
	var p probe
	reuser := reuseAt(eng, inst.AbsDeadline, inst.watchDeadline, &p)
	eng.Run(vtime.Time(vtime.Millisecond))
	if !inst.completed || inst.watchDeadline.Pending() {
		t.Fatal("the instance did not complete and cancel its deadline watchdog")
	}
	eng.RunUntilIdle()
	if record(*reuser) != record(inst.watchDeadline) {
		t.Fatal("the event at the deadline did not take the watchdog's record")
	}
	if p.fired != 1 {
		t.Fatalf("the event reusing the record fired %d times, want 1", p.fired)
	}
	if st := d.Stats(); st.DeadlineMisses != 0 || st.NetworkOmissions != 0 {
		t.Fatalf("stats %+v: a cancelled watchdog fired", st)
	}
	if n := eng.Log().CountKind(monitor.KindDeadlineMiss); n != 0 {
		t.Fatalf("%d deadline-miss records", n)
	}
}

func TestCancelledOmissionWatchdogRecordReused(t *testing.T) {
	eng := simkern.NewEngine(monitor.NewLog(0), 1)
	eng.AddProcessor("n0", 0)
	eng.AddProcessor("n1", 0)
	net := netsim.New(eng, netsim.DefaultConfig())
	net.Connect(0, 1, 100*vtime.Microsecond, 200*vtime.Microsecond)
	d := New(eng, net, CostBook{})
	app := d.RegisterApp("rt", passive{}, nil)
	var sentAt vtime.Time
	app.AddTask(heug.NewTask("pipe", heug.AperiodicLaw()).
		WithDeadline(100*vtime.Millisecond).
		Code("a", heug.CodeEU{Node: 0, WCET: 100 * vtime.Microsecond,
			Action: func(ctx heug.ActionContext) { sentAt = ctx.Now() }}).
		Code("b", heug.CodeEU{Node: 1, WCET: 100 * vtime.Microsecond}).
		Precede("a", "b").
		MustBuild())
	app.Seal()
	if _, err := d.Activate("pipe"); err != nil {
		t.Fatal(err)
	}
	var crossing pendingCrossing
	for len(d.pendingRemote) == 0 {
		eng.Run(eng.Now().Add(vtime.Microsecond))
	}
	for _, c := range d.pendingRemote {
		crossing = c
	}
	watchAt := sentAt.Add(crossing.bound)
	eng.Run(watchAt - 1)
	if len(d.pendingRemote) != 0 || crossing.watch.Pending() {
		t.Fatal("the delivery did not cancel the omission watchdog before its bound")
	}
	var p probe
	reuser := reuseAt(eng, watchAt, crossing.watch, &p)
	eng.RunUntilIdle()
	if record(*reuser) != record(crossing.watch) {
		t.Fatal("the event at the omission bound did not take the watchdog's record")
	}
	if p.fired != 1 {
		t.Fatalf("the event reusing the record fired %d times, want 1", p.fired)
	}
	if st := d.Stats(); st.Completions != 1 || st.DeadlineMisses != 0 || st.NetworkOmissions != 0 {
		t.Fatalf("stats %+v: want one completion and no watchdog firing", st)
	}
	if n := eng.Log().CountKind(monitor.KindNetworkOmission); n != 0 {
		t.Fatalf("%d network-omission records", n)
	}
}
