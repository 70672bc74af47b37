package dispatcher_test

import (
	"strings"
	"testing"

	"hades/internal/cluster"
	"hades/internal/dispatcher"
	"hades/internal/heug"
	"hades/internal/monitor"
	"hades/internal/netsim"
	"hades/internal/sched"
	"hades/internal/simkern"
	"hades/internal/vtime"
)

// newSingleNode builds a 1-node system with an RM app and the given
// tasks, returning the system and app.
func newSingleNode(t *testing.T, costs dispatcher.CostBook, tasks ...*heug.Task) (*cluster.Cluster, *cluster.App) {
	t.Helper()
	sys := cluster.New(cluster.Config{Seed: 7, Costs: costs})
	app := sys.NewApp("app", sched.NewRM(), nil)
	for _, task := range tasks {
		app.MustAddTask(task)
	}
	app.Seal()
	return sys, app
}

func TestPrecedenceChainExecutesInOrder(t *testing.T) {
	var order []string
	mk := func(name string) heug.Action {
		return func(heug.ActionContext) { order = append(order, name) }
	}
	task := heug.NewTask("chain", heug.AperiodicLaw()).
		WithDeadline(10*ms).
		Code("a", heug.CodeEU{Node: 0, WCET: 100 * us, Action: mk("a")}).
		Code("b", heug.CodeEU{Node: 0, WCET: 100 * us, Action: mk("b")}).
		Code("c", heug.CodeEU{Node: 0, WCET: 100 * us, Action: mk("c")}).
		Precede("a", "b").Precede("b", "c").
		MustBuild()
	sys, _ := newSingleNode(t, dispatcher.ZeroCostBook(), task)
	sys.ActivateAt("chain", 0)
	rep := sys.Run(20 * ms)
	if strings.Join(order, "") != "abc" {
		t.Fatalf("order %v", order)
	}
	if rep.Stats.Completions != 1 || rep.Stats.DeadlineMisses != 0 {
		t.Fatalf("stats %+v", rep.Stats)
	}
}

func TestParameterPassingAlongEdges(t *testing.T) {
	var got any
	task := heug.NewTask("params", heug.AperiodicLaw()).
		WithDeadline(10*ms).
		Code("src", heug.CodeEU{Node: 0, WCET: 50 * us, Action: func(ctx heug.ActionContext) {
			ctx.Out("x", int64(41))
		}}).
		Code("dst", heug.CodeEU{Node: 0, WCET: 50 * us, Action: func(ctx heug.ActionContext) {
			v, ok := ctx.In("x")
			if ok {
				got = v.(int64) + 1
			}
		}}).
		Precede("src", "dst", "x").
		MustBuild()
	sys, _ := newSingleNode(t, dispatcher.DefaultCostBook(), task)
	sys.ActivateAt("params", 0)
	sys.Run(20 * ms)
	if got != int64(42) {
		t.Fatalf("got %v, want 42", got)
	}
}

func TestExclusiveResourceSerialises(t *testing.T) {
	// Two tasks contending for one exclusive resource: their critical
	// sections must never overlap.
	var insideCS int
	var maxInside int
	enter := func(heug.ActionContext) {
		insideCS++
		if insideCS > maxInside {
			maxInside = insideCS
		}
	}
	mkTask := func(name string) *heug.Task {
		return heug.NewTask(name, heug.AperiodicLaw()).
			WithDeadline(50*ms).
			Code("pre", heug.CodeEU{Node: 0, WCET: 10 * us, Action: enter}).
			Code("cs", heug.CodeEU{Node: 0, WCET: 1 * ms,
				Resources: []heug.ResourceReq{{Resource: "R", Mode: heug.Exclusive}},
				Action:    func(heug.ActionContext) { insideCS-- },
			}).
			Precede("pre", "cs").
			MustBuild()
	}
	// Track overlap via resource grant/release events instead: count
	// concurrent holds from the log afterwards.
	sys, _ := newSingleNode(t, dispatcher.ZeroCostBook(), mkTask("ta"), mkTask("tb"))
	sys.ActivateAt("ta", 0)
	sys.ActivateAt("tb", vtime.Time(5*us))
	rep := sys.Run(100 * ms)
	holds := 0
	for _, e := range sys.Log().ByKind(monitor.KindResourceGrant, monitor.KindResourceRelease) {
		if e.Kind == monitor.KindResourceGrant {
			holds++
			if holds > 1 {
				t.Fatal("exclusive resource held twice concurrently")
			}
		} else {
			holds--
		}
	}
	if rep.Stats.Completions != 2 {
		t.Fatalf("completions %d", rep.Stats.Completions)
	}
}

func TestSharedResourceAllowsConcurrentReaders(t *testing.T) {
	mkReader := func(name string) *heug.Task {
		return heug.NewTask(name, heug.AperiodicLaw()).
			WithDeadline(50*ms).
			Code("r", heug.CodeEU{Node: 0, WCET: 1 * ms,
				Resources: []heug.ResourceReq{{Resource: "R", Mode: heug.Shared}}}).
			MustBuild()
	}
	sys, _ := newSingleNode(t, dispatcher.ZeroCostBook(), mkReader("r1"), mkReader("r2"))
	sys.ActivateAt("r1", 0)
	sys.ActivateAt("r2", 0)
	sys.Run(100 * ms)
	// Both grants must occur before any release (concurrent holding).
	events := sys.Log().ByKind(monitor.KindResourceGrant, monitor.KindResourceRelease)
	if len(events) != 4 {
		t.Fatalf("events %d, want 4", len(events))
	}
	if events[0].Kind != monitor.KindResourceGrant || events[1].Kind != monitor.KindResourceGrant {
		t.Fatal("shared readers were serialised")
	}
}

func TestExclusiveBlocksShared(t *testing.T) {
	writer := heug.NewTask("w", heug.AperiodicLaw()).
		WithDeadline(50*ms).
		Code("w", heug.CodeEU{Node: 0, WCET: 2 * ms,
			Resources: []heug.ResourceReq{{Resource: "R", Mode: heug.Exclusive}}}).
		MustBuild()
	reader := heug.NewTask("r", heug.AperiodicLaw()).
		WithDeadline(50*ms).
		Code("r", heug.CodeEU{Node: 0, WCET: 1 * ms,
			Resources: []heug.ResourceReq{{Resource: "R", Mode: heug.Shared}}}).
		MustBuild()
	sys, _ := newSingleNode(t, dispatcher.ZeroCostBook(), writer, reader)
	sys.ActivateAt("w", 0)
	sys.ActivateAt("r", vtime.Time(100*us))
	sys.Run(100 * ms)
	events := sys.Log().ByKind(monitor.KindResourceGrant, monitor.KindResourceRelease)
	// Grant(w), Release(w), Grant(r), Release(r).
	kinds := make([]monitor.Kind, len(events))
	for i, e := range events {
		kinds[i] = e.Kind
	}
	if len(events) != 4 || kinds[0] != monitor.KindResourceGrant || kinds[1] != monitor.KindResourceRelease {
		t.Fatalf("reader overlapped writer: %v", kinds)
	}
}

func TestConditionVariableGatesStart(t *testing.T) {
	waiter := heug.NewTask("waiter", heug.AperiodicLaw()).
		WithDeadline(50*ms).
		Code("w", heug.CodeEU{Node: 0, WCET: 100 * us, WaitConds: []string{"go"}}).
		MustBuild()
	setter := heug.NewTask("setter", heug.AperiodicLaw()).
		WithDeadline(50*ms).
		Code("s", heug.CodeEU{Node: 0, WCET: 100 * us, Action: func(ctx heug.ActionContext) {
			ctx.SetCond("go")
		}}).
		MustBuild()
	sys, _ := newSingleNode(t, dispatcher.ZeroCostBook(), waiter, setter)
	sys.ActivateAt("waiter", 0)
	sys.ActivateAt("setter", vtime.Time(5*ms))
	rep := sys.Run(100 * ms)
	if rep.Stats.Completions != 2 {
		t.Fatalf("completions %d", rep.Stats.Completions)
	}
	// Waiter must finish after setter set the condition (>= 5ms).
	for _, tr := range rep.Tasks {
		if tr.Name == "waiter" && tr.MaxResponse < 5*ms {
			t.Fatalf("waiter responded at %s, before the condition was set", tr.MaxResponse)
		}
	}
}

func TestEarliestStartTimeRespected(t *testing.T) {
	task := heug.NewTask("late", heug.AperiodicLaw()).
		WithDeadline(50*ms).
		Code("e", heug.CodeEU{Node: 0, WCET: 100 * us, Earliest: 10 * ms}).
		MustBuild()
	sys, _ := newSingleNode(t, dispatcher.ZeroCostBook(), task)
	sys.ActivateAt("late", 0)
	rep := sys.Run(100 * ms)
	if rep.Tasks[0].MaxResponse < 10*ms {
		t.Fatalf("started before earliest: response %s", rep.Tasks[0].MaxResponse)
	}
}

func TestDeadlineMissDetectedAtDeadline(t *testing.T) {
	task := heug.NewTask("hog", heug.AperiodicLaw()).
		WithDeadline(1*ms).
		Code("h", heug.CodeEU{Node: 0, WCET: 5 * ms}).
		MustBuild()
	sys, _ := newSingleNode(t, dispatcher.ZeroCostBook(), task)
	sys.ActivateAt("hog", 0)
	rep := sys.Run(50 * ms)
	if rep.Stats.DeadlineMisses != 1 {
		t.Fatalf("misses %d, want 1", rep.Stats.DeadlineMisses)
	}
	misses := sys.Log().ByKind(monitor.KindDeadlineMiss)
	if len(misses) != 1 {
		t.Fatalf("miss events %d", len(misses))
	}
	// Detected at the deadline instant, not at completion (§3.2.1).
	if misses[0].At != vtime.Time(1*ms) {
		t.Fatalf("miss detected at %s, want 1ms", misses[0].At)
	}
}

func TestCancelOnMissOrphansThreads(t *testing.T) {
	task := heug.NewTask("doomed", heug.AperiodicLaw()).
		WithDeadline(1*ms).
		Code("a", heug.CodeEU{Node: 0, WCET: 5 * ms}).
		Code("b", heug.CodeEU{Node: 0, WCET: 1 * ms}).
		Precede("a", "b").
		MustBuild()
	sys := cluster.New(cluster.Config{Seed: 7, CancelOnMiss: true})
	app := sys.NewApp("app", sched.NewRM(), nil)
	app.MustAddTask(task)
	app.Seal()
	sys.ActivateAt("doomed", 0)
	rep := sys.Run(50 * ms)
	if rep.Stats.Orphans != 2 {
		t.Fatalf("orphans %d, want 2 (both units)", rep.Stats.Orphans)
	}
	if rep.Stats.Completions != 0 {
		t.Fatalf("completions %d, want 0", rep.Stats.Completions)
	}
	if n := sys.Log().CountKind(monitor.KindOrphanThread); n != 2 {
		t.Fatalf("orphan events %d", n)
	}
}

func TestArrivalLawViolationSporadic(t *testing.T) {
	task := heug.NewTask("spo", heug.SporadicEvery(10*ms)).
		WithDeadline(5*ms).
		Code("s", heug.CodeEU{Node: 0, WCET: 100 * us}).
		MustBuild()
	sys, _ := newSingleNode(t, dispatcher.ZeroCostBook(), task)
	sys.ActivateAt("spo", 0)
	sys.ActivateAt("spo", vtime.Time(2*ms)) // violates pseudo-period
	rep := sys.Run(50 * ms)
	if rep.Stats.ArrivalViolations != 1 {
		t.Fatalf("violations %d, want 1", rep.Stats.ArrivalViolations)
	}
	// Default policy: record and run anyway.
	if rep.Stats.Completions != 2 {
		t.Fatalf("completions %d, want 2", rep.Stats.Completions)
	}
}

func TestEarlyTerminationDetected(t *testing.T) {
	task := heug.NewTask("early", heug.AperiodicLaw()).
		WithDeadline(50*ms).
		Code("e", heug.CodeEU{Node: 0, WCET: 10 * ms,
			ActualWork: func(uint64) vtime.Duration { return 2 * ms }}).
		MustBuild()
	sys, _ := newSingleNode(t, dispatcher.ZeroCostBook(), task)
	sys.ActivateAt("early", 0)
	rep := sys.Run(100 * ms)
	if rep.Stats.EarlyTerminations != 1 {
		t.Fatalf("early terminations %d, want 1", rep.Stats.EarlyTerminations)
	}
	if rep.Tasks[0].MaxResponse != 2*ms {
		t.Fatalf("response %s, want 2ms (actual, not WCET)", rep.Tasks[0].MaxResponse)
	}
}

func TestLatestStartMissDetected(t *testing.T) {
	// A blocker occupies the CPU so the monitored unit cannot start
	// before its latest start time.
	blocker := heug.NewTask("blocker", heug.AperiodicLaw()).
		WithDeadline(50*ms).
		Code("b", heug.CodeEU{Node: 0, WCET: 10 * ms, Prio: 100}).
		MustBuild()
	watched := heug.NewTask("watched", heug.AperiodicLaw()).
		WithDeadline(50*ms).
		Code("w", heug.CodeEU{Node: 0, WCET: 1 * ms, Prio: 1, Latest: 2 * ms}).
		MustBuild()
	sys := cluster.New(cluster.Config{Seed: 7})
	app := sys.NewApp("app", sched.NewBestEffort(), nil)
	app.MustAddTask(blocker)
	app.MustAddTask(watched)
	app.Seal()
	// Seal's BestEffort Init flattens priorities; restore the blocker's
	// dominance afterwards (threads read Prio at activation time).
	blocker.EUs[0].Code.Prio = 100
	watched.EUs[0].Code.Prio = 1
	sys.ActivateAt("blocker", 0)
	sys.ActivateAt("watched", 0)
	rep := sys.Run(100 * ms)
	if rep.Stats.LatestMisses != 1 {
		t.Fatalf("latest misses %d, want 1", rep.Stats.LatestMisses)
	}
}

// holdPair registers, on one DM node at the default cost book, a
// holder that keeps R for 5 ms and a waiter that needs R, under pol.
func holdPair(eng *simkern.Engine, pol dispatcher.ResourcePolicy) *dispatcher.Dispatcher {
	d := dispatcher.New(eng, nil, dispatcher.DefaultCostBook())
	app := d.RegisterApp("rt", sched.NewDM(), pol)
	r := []heug.ResourceReq{{Resource: "R", Mode: heug.Exclusive}}
	app.AddTask(heug.NewTask("holder", heug.AperiodicLaw()).
		WithDeadline(20*ms).
		Code("h", heug.CodeEU{Node: 0, WCET: 5 * ms, Resources: r}).
		MustBuild())
	app.AddTask(heug.NewTask("waiter", heug.AperiodicLaw()).
		WithDeadline(10*ms).
		Code("w", heug.CodeEU{Node: 0, WCET: 100 * us, Resources: r}).
		MustBuild())
	app.Seal()
	return d
}

// holdPairPolicies are the policies a refused grant is checked under:
// plain locking refuses the waiter on R's mode, SRP on R's ceiling too.
var holdPairPolicies = []struct {
	name string
	pol  func() dispatcher.ResourcePolicy
}{
	{"plain", func() dispatcher.ResourcePolicy { return nil }},
	{"SRP", func() dispatcher.ResourcePolicy { return sched.NewSRP() }},
}

// TestHoldAndWaitRecordsDeadlock: a holder left in a wait state breaks
// §3.3's no-hold-and-wait rule, and the unit refused its resource
// records exactly one DEADLOCK naming the holder, its state and what it
// holds. Once the holder runs on, both units complete and nothing more
// is recorded.
func TestHoldAndWaitRecordsDeadlock(t *testing.T) {
	for _, tc := range holdPairPolicies {
		t.Run(tc.name, func(t *testing.T) {
			log := monitor.NewLog(0)
			eng := simkern.NewEngine(log, 1)
			eng.AddProcessor("n", dispatcher.DefaultCostBook().SwitchCost)
			d := holdPair(eng, tc.pol())
			inst, err := d.Activate("holder")
			if err != nil {
				t.Fatal(err)
			}
			eng.Run(vtime.Time(ms))
			unpark := inst.Threads[0].Park()
			if _, err := d.Activate("waiter"); err != nil {
				t.Fatal(err)
			}
			eng.Run(vtime.Time(2 * ms))
			unpark()
			eng.Run(vtime.Time(20 * ms))

			evs := log.ByKind(monitor.KindDeadlock)
			if st := d.Stats(); st.Deadlocks != 1 || len(evs) != 1 {
				t.Fatalf("%d deadlocks counted, %d recorded, want 1", st.Deadlocks, len(evs))
			}
			if e := evs[0]; !strings.Contains(e.Subject, "waiter") ||
				!strings.Contains(e.Detail, "holder") || !strings.Contains(e.Detail, "[R] in wait-conds") {
				t.Fatalf("record %s %q does not name the holder, R and its state", e.Subject, e.Detail)
			}
			t.Logf("%s: %s", evs[0].Subject, evs[0].Detail)
			if st := d.Stats(); st.Completions != 2 {
				t.Fatalf("%d of %d instances completed", st.Completions, st.Activations)
			}
		})
	}
}

func TestRemotePrecedenceCrossesNetwork(t *testing.T) {
	task := heug.NewTask("dist", heug.AperiodicLaw()).
		WithDeadline(100*ms).
		Code("a", heug.CodeEU{Node: 0, WCET: 100 * us, Action: func(ctx heug.ActionContext) {
			ctx.Out("v", "hello")
		}}).
		Code("b", heug.CodeEU{Node: 1, WCET: 100 * us, Action: func(ctx heug.ActionContext) {
			if v, ok := ctx.In("v"); !ok || v != "hello" {
				panic("remote parameter lost")
			}
		}}).
		Precede("a", "b", "v").
		MustBuild()
	sys := cluster.New(cluster.Config{Seed: 7, Costs: dispatcher.DefaultCostBook()})
	sys.AddNodes(2)
	app := sys.NewApp("app", sched.NewRM(), nil)
	app.MustAddTask(task)
	app.Seal()
	sys.ActivateAt("dist", 0)
	rep := sys.Run(200 * ms)
	if rep.Stats.Completions != 1 {
		t.Fatalf("completions %d", rep.Stats.Completions)
	}
	if rep.Stats.NetworkOmissions != 0 {
		t.Fatalf("false omission detections: %d", rep.Stats.NetworkOmissions)
	}
	if sys.Network().Stats().Delivered != 1 {
		t.Fatalf("network delivered %d", sys.Network().Stats().Delivered)
	}
	// The remote edge's latency shows in the response time.
	if rep.Tasks[0].MaxResponse < 200*us+100*us {
		t.Fatalf("response %s too fast for a remote hop", rep.Tasks[0].MaxResponse)
	}
}

func TestNetworkOmissionDetected(t *testing.T) {
	task := heug.NewTask("flaky", heug.AperiodicLaw()).
		WithDeadline(100*ms).
		Code("a", heug.CodeEU{Node: 0, WCET: 100 * us}).
		Code("b", heug.CodeEU{Node: 1, WCET: 100 * us}).
		Precede("a", "b").
		MustBuild()
	sys := cluster.New(cluster.Config{Seed: 7})
	sys.AddNodes(2)
	// Drop everything on the HEUG port.
	sys.Network().SetFault(dropAll{})
	app := sys.NewApp("app", sched.NewRM(), nil)
	app.MustAddTask(task)
	app.Seal()
	sys.ActivateAt("flaky", 0)
	rep := sys.Run(200 * ms)
	if rep.Stats.NetworkOmissions != 1 {
		t.Fatalf("omissions detected %d, want 1", rep.Stats.NetworkOmissions)
	}
	if rep.Stats.Completions != 0 {
		t.Fatal("task completed despite lost precedence message")
	}
	if n := sys.Log().CountKind(monitor.KindNetworkOmission); n != 1 {
		t.Fatalf("omission events %d", n)
	}
}

type dropAll struct{}

func (dropAll) Judge(*netsim.Message) netsim.Verdict {
	return netsim.Verdict{Fate: netsim.FateDrop}
}

func TestDeterministicEndToEnd(t *testing.T) {
	run := func() string {
		sys := cluster.New(cluster.Config{Seed: 99, Costs: dispatcher.DefaultCostBook()})
		sys.AddNodes(2)
		app := sys.NewApp("app", sched.NewEDF(15*us), sched.NewSRP())
		for i, p := range []vtime.Duration{5 * ms, 7 * ms, 11 * ms} {
			st := heug.SpuriTask{
				Name: "t" + string(rune('a'+i)), Node: i % 2,
				CBefore: 200 * us, CS: 100 * us, CAfter: 150 * us,
				Resource: "S", Deadline: p, PseudoPeriod: p,
			}
			if err := app.AddSpuri(st); err != nil {
				t.Fatal(err)
			}
		}
		app.Seal()
		for _, n := range []string{"ta", "tb", "tc"} {
			if err := sys.StartSporadicWorstCase(n); err != nil {
				t.Fatal(err)
			}
		}
		rep := sys.Run(100 * ms)
		var log strings.Builder
		if err := sys.Log().WriteTrace(&log); err != nil {
			t.Fatal(err)
		}
		return rep.String() + log.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("two seeded runs differ:\n%s\n---\n%s", a, b)
	}
}
