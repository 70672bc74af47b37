package sched_test

import (
	"testing"

	"hades/internal/cluster"
	"hades/internal/dispatcher"
	"hades/internal/heug"
	"hades/internal/monitor"
	"hades/internal/sched"
	"hades/internal/vtime"
)

const (
	us = vtime.Microsecond
	ms = vtime.Millisecond
)

func TestRMAssignsByPeriod(t *testing.T) {
	fast := heug.NewTask("fast", heug.PeriodicEvery(5*ms)).
		WithDeadline(5*ms).
		Code("e", heug.CodeEU{WCET: 100 * us}).MustBuild()
	slow := heug.NewTask("slow", heug.PeriodicEvery(50*ms)).
		WithDeadline(50*ms).
		Code("e", heug.CodeEU{WCET: 100 * us}).MustBuild()
	mid := heug.NewTask("mid", heug.PeriodicEvery(20*ms)).
		WithDeadline(20*ms).
		Code("e", heug.CodeEU{WCET: 100 * us}).MustBuild()
	rm := sched.NewRM()
	rm.Init([]*heug.Task{slow, fast, mid})
	pf, pm, ps := fast.EUs[0].Code.Prio, mid.EUs[0].Code.Prio, slow.EUs[0].Code.Prio
	if !(pf > pm && pm > ps) {
		t.Fatalf("RM order wrong: fast=%d mid=%d slow=%d", pf, pm, ps)
	}
	if rm.Cost() != 0 || rm.Wants(dispatcher.NotifAtv) {
		t.Error("RM must be static and free")
	}
}

func TestDMAssignsByDeadline(t *testing.T) {
	a := heug.NewTask("a", heug.SporadicEvery(50*ms)).
		WithDeadline(30*ms).
		Code("e", heug.CodeEU{WCET: 100 * us}).MustBuild()
	b := heug.NewTask("b", heug.SporadicEvery(20*ms)).
		WithDeadline(10*ms).
		Code("e", heug.CodeEU{WCET: 100 * us}).MustBuild()
	sched.NewDM().Init([]*heug.Task{a, b})
	if b.EUs[0].Code.Prio <= a.EUs[0].Code.Prio {
		t.Fatal("DM: shorter deadline must get higher priority")
	}
}

func TestEDFPicksEarliestDeadline(t *testing.T) {
	sys := cluster.New(cluster.Config{Seed: 3})
	app := sys.NewApp("edf", sched.NewEDF(10*us), nil)
	mk := func(name string, d vtime.Duration) *heug.Task {
		return heug.NewTask(name, heug.AperiodicLaw()).
			WithDeadline(d).
			Code("e", heug.CodeEU{Node: 0, WCET: 2 * ms}).
			MustBuild()
	}
	app.MustAddTask(mk("far", 50*ms))
	app.MustAddTask(mk("near", 8*ms))
	app.MustAddTask(mk("mid", 20*ms))
	app.Seal()
	// All activated together: EDF must run near, mid, far.
	sys.ActivateAt("far", 0)
	sys.ActivateAt("near", 0)
	sys.ActivateAt("mid", 0)
	rep := sys.Run(100 * ms)
	if rep.Stats.DeadlineMisses != 0 {
		t.Fatalf("misses %d", rep.Stats.DeadlineMisses)
	}
	var rNear, rMid, rFar vtime.Duration
	for _, tr := range rep.Tasks {
		switch tr.Name {
		case "near":
			rNear = tr.MaxResponse
		case "mid":
			rMid = tr.MaxResponse
		case "far":
			rFar = tr.MaxResponse
		}
	}
	if !(rNear < rMid && rMid < rFar) {
		t.Fatalf("EDF order violated: near=%s mid=%s far=%s", rNear, rMid, rFar)
	}
}

func TestEDFIsDeadlineOptimalWhereRMFails(t *testing.T) {
	// Classic LL73 case: non-harmonic periods at U ≈ 0.97 — feasible
	// under EDF (U ≤ 1), infeasible under RM (above the bound, and the
	// exact analysis gives R2 = 8ms > D2 = 7ms).
	build := func() []*heug.Task {
		t1 := heug.NewTask("t1", heug.PeriodicEvery(5*ms)).
			WithDeadline(5*ms).
			Code("e", heug.CodeEU{Node: 0, WCET: 2 * ms}).MustBuild()
		t2 := heug.NewTask("t2", heug.PeriodicEvery(7*ms)).
			WithDeadline(7*ms).
			Code("e", heug.CodeEU{Node: 0, WCET: 4 * ms}).MustBuild()
		return []*heug.Task{t1, t2}
	}
	run := func(policy dispatcher.Scheduler) int {
		sys := cluster.New(cluster.Config{Seed: 3})
		app := sys.NewApp("a", policy, nil)
		for _, task := range build() {
			app.MustAddTask(task)
		}
		app.Seal()
		_ = sys.StartPeriodic("t1")
		_ = sys.StartPeriodic("t2")
		rep := sys.Run(100 * ms)
		return rep.Stats.DeadlineMisses
	}
	if m := run(sched.NewEDF(0)); m != 0 {
		t.Fatalf("EDF at U=1.0 missed %d deadlines", m)
	}
	if m := run(sched.NewRM()); m == 0 {
		t.Fatal("RM at U=1.0 with these harmonics should miss (no misses seen)")
	}
}

// inversionScenario runs the canonical priority-inversion workload:
// L (low, long critical section on R), M (medium, long pure compute),
// H (high, needs R). Returns H's max response time and the system.
func inversionScenario(t *testing.T, policy dispatcher.ResourcePolicy) (vtime.Duration, *cluster.Cluster) {
	t.Helper()
	low := heug.NewTask("low", heug.SporadicEvery(200*ms)).
		WithDeadline(100*ms).
		Code("cs", heug.CodeEU{Node: 0, WCET: 10 * ms,
			Resources: []heug.ResourceReq{{Resource: "R", Mode: heug.Exclusive}}}).
		MustBuild()
	mid := heug.NewTask("mid", heug.SporadicEvery(200*ms)).
		WithDeadline(60*ms).
		Code("work", heug.CodeEU{Node: 0, WCET: 20 * ms}).
		MustBuild()
	high := heug.NewTask("high", heug.SporadicEvery(200*ms)).
		WithDeadline(30*ms).
		Code("use", heug.CodeEU{Node: 0, WCET: 1 * ms,
			Resources: []heug.ResourceReq{{Resource: "R", Mode: heug.Exclusive}}}).
		MustBuild()
	sys := cluster.New(cluster.Config{Seed: 3})
	app := sys.NewApp("inv", sched.NewDM(), policy)
	app.MustAddTask(low)
	app.MustAddTask(mid)
	app.MustAddTask(high)
	app.Seal()
	sys.ActivateAt("low", 0)
	sys.ActivateAt("high", vtime.Time(1*ms))
	sys.ActivateAt("mid", vtime.Time(2*ms))
	rep := sys.Run(150 * ms)
	var rHigh vtime.Duration
	for _, tr := range rep.Tasks {
		if tr.Name == "high" {
			rHigh = tr.MaxResponse
		}
	}
	return rHigh, sys
}

func TestUnboundedInversionWithoutProtocol(t *testing.T) {
	rHigh, _ := inversionScenario(t, nil)
	// M (20ms) preempts L while H waits on R: H suffers M's whole run.
	if rHigh < 20*ms {
		t.Fatalf("expected unbounded inversion without protocol, H responded in %s", rHigh)
	}
}

func TestPCPBoundsInversion(t *testing.T) {
	rHigh, sys := inversionScenario(t, sched.NewPCP())
	// H waits at most L's critical section (10ms) + own 1ms + slack.
	if rHigh > 12*ms {
		t.Fatalf("PCP failed to bound inversion: H responded in %s", rHigh)
	}
	// PCP works through priority inheritance: changes must be visible.
	if n := sys.Log().CountKind(monitor.KindPriorityChange); n == 0 {
		t.Error("PCP produced no priority changes")
	}
}

func TestSRPBoundsInversion(t *testing.T) {
	rHigh, sys := inversionScenario(t, sched.NewSRP())
	if rHigh > 12*ms {
		t.Fatalf("SRP failed to bound inversion: H responded in %s", rHigh)
	}
	// SRP needs no priority manipulation at all.
	if n := sys.Log().CountKind(monitor.KindPriorityChange); n != 0 {
		t.Errorf("SRP changed priorities %d times, want 0", n)
	}
}

func TestSpringAdmissionRejectsOverload(t *testing.T) {
	sys := cluster.New(cluster.Config{Seed: 3})
	spring := sched.NewSpring(15*us, 50*us)
	app := sys.NewApp("plan", spring, nil)
	mk := func(name string, c, d vtime.Duration) *heug.Task {
		return heug.NewTask(name, heug.AperiodicLaw()).
			WithDeadline(d).
			Code("e", heug.CodeEU{Node: 0, WCET: c}).
			MustBuild()
	}
	app.MustAddTask(mk("j1", 5*ms, 10*ms))
	app.MustAddTask(mk("j2", 5*ms, 11*ms))
	app.MustAddTask(mk("j3", 5*ms, 12*ms)) // cannot fit: 15ms work by 12ms
	app.Seal()
	sys.ActivateAt("j1", 0)
	sys.ActivateAt("j2", 0)
	sys.ActivateAt("j3", 0)
	rep := sys.Run(100 * ms)
	if rep.Stats.Rejections != 1 {
		t.Fatalf("rejections %d, want 1 (j3 unguaranteeable)", rep.Stats.Rejections)
	}
	if rep.Stats.DeadlineMisses != 0 {
		t.Fatalf("admitted jobs missed: %d — guarantee broken", rep.Stats.DeadlineMisses)
	}
	if rep.Stats.Completions != 2 {
		t.Fatalf("completions %d, want 2", rep.Stats.Completions)
	}
}

func TestSpringGuaranteedJobsAllComplete(t *testing.T) {
	sys := cluster.New(cluster.Config{Seed: 3})
	spring := sched.NewSpring(15*us, 50*us)
	app := sys.NewApp("plan", spring, nil)
	for i := 0; i < 5; i++ {
		name := string(rune('a' + i))
		app.MustAddTask(heug.NewTask(name, heug.AperiodicLaw()).
			WithDeadline(vtime.Duration(20+i*10)*ms).
			Code("e", heug.CodeEU{Node: 0, WCET: 3 * ms}).
			MustBuild())
		sys.ActivateAt(name, vtime.Time(vtime.Duration(i)*ms))
	}
	app.Seal()
	rep := sys.Run(200 * ms)
	admitted := rep.Stats.Activations
	if rep.Stats.Completions != admitted {
		t.Fatalf("admitted %d but completed %d", admitted, rep.Stats.Completions)
	}
	if rep.Stats.DeadlineMisses != 0 {
		t.Fatalf("guaranteed jobs missed %d deadlines", rep.Stats.DeadlineMisses)
	}
}

func TestBestEffortCohabitation(t *testing.T) {
	// A guaranteed EDF app cohabits with a best-effort app (§2.2.1's
	// second cohabitation option): the best-effort load must not
	// disturb the guaranteed app's deadlines.
	sys := cluster.New(cluster.Config{Seed: 3})
	guaranteed := sys.NewApp("guaranteed", sched.NewEDF(10*us), nil)
	guaranteed.MustAddTask(heug.NewTask("critical", heug.PeriodicEvery(10*ms)).
		WithDeadline(10*ms).
		Code("e", heug.CodeEU{Node: 0, WCET: 4 * ms}).
		MustBuild())
	guaranteed.Seal()

	besteffort := sys.NewApp("bg", sched.NewBestEffort(), nil)
	besteffort.MustAddTask(heug.NewTask("noise", heug.PeriodicEvery(5*ms)).
		Code("e", heug.CodeEU{Node: 0, WCET: 4 * ms}).
		MustBuild())
	besteffort.Seal()

	_ = sys.StartPeriodic("critical")
	_ = sys.StartPeriodic("noise")
	rep := sys.Run(200 * ms)
	for _, tr := range rep.Tasks {
		if tr.Name == "critical" && tr.Misses != 0 {
			t.Fatalf("guaranteed app missed %d deadlines under best-effort load", tr.Misses)
		}
		if tr.Name == "noise" && tr.Completions == 0 {
			t.Fatal("best-effort app completely starved (should get slack)")
		}
	}
}

// TestSRPStartTestSeesOnlyItsApp: two apps on one node share resource
// R, each under its own SRP. App b's hold on R does not enter app a's
// system ceiling, so a's resource-free job, whose preemption level does
// not exceed a's ceiling of R, starts while b holds R.
func TestSRPStartTestSeesOnlyItsApp(t *testing.T) {
	useR := []heug.ResourceReq{{Resource: "R", Mode: heug.Exclusive}}
	sys := cluster.New(cluster.Config{Seed: 3})
	a := sys.NewApp("a", sched.NewDM(), sched.NewSRP())
	a.MustAddTask(heug.NewTask("a.user", heug.SporadicEvery(100*ms)).
		WithDeadline(10*ms).
		Code("cs", heug.CodeEU{Node: 0, WCET: 1 * ms, Resources: useR}).
		MustBuild())
	a.MustAddTask(heug.NewTask("a.free", heug.SporadicEvery(100*ms)).
		WithDeadline(40*ms).
		Code("work", heug.CodeEU{Node: 0, WCET: 1 * ms}).
		MustBuild())
	a.Seal()
	b := sys.NewApp("b", sched.NewBestEffort(), sched.NewSRP())
	b.MustAddTask(heug.NewTask("b.holder", heug.SporadicEvery(100*ms)).
		WithDeadline(90*ms).
		Code("cs", heug.CodeEU{Node: 0, WCET: 10 * ms, Resources: useR}).
		MustBuild())
	b.Seal()
	sys.ActivateAt("b.holder", 0)
	sys.ActivateAt("a.free", vtime.Time(1*ms))
	rep := sys.Run(50 * ms)
	for _, tr := range rep.Tasks {
		if tr.Completions != 1 && tr.Name != "a.user" {
			t.Fatalf("%s completed %d instances, want 1", tr.Name, tr.Completions)
		}
		// Waiting out b's 10 ms critical section would take 9 ms or more.
		if tr.Name == "a.free" && tr.MaxResponse > 2*ms {
			t.Fatalf("a.free responded in %s: b's hold on R blocked a's start test", tr.MaxResponse)
		}
	}
}

// TestPCPInheritsThroughTheCeiling: under PCP a job blocked by the
// ceiling gate alone, with no mode conflict, still raises the priority
// of the holder in its way. mid needs only R1, which is free, but low
// holds R2, whose ceiling is high's priority: mid waits out low's
// critical section, and low runs it at mid's priority.
func TestPCPInheritsThroughTheCeiling(t *testing.T) {
	use := func(r string) []heug.ResourceReq { return []heug.ResourceReq{{Resource: r, Mode: heug.Exclusive}} }
	sys := cluster.New(cluster.Config{Seed: 3})
	app := sys.NewApp("pcp", sched.NewDM(), sched.NewPCP())
	for _, task := range []struct {
		name string
		d    vtime.Duration
		wcet vtime.Duration
		r    string
	}{{"low", 90 * ms, 10 * ms, "R2"}, {"mid", 50 * ms, 1 * ms, "R1"}, {"high", 10 * ms, 1 * ms, "R2"}} {
		app.MustAddTask(heug.NewTask(task.name, heug.SporadicEvery(100*ms)).
			WithDeadline(task.d).
			Code("cs", heug.CodeEU{Node: 0, WCET: task.wcet, Resources: use(task.r)}).
			MustBuild())
	}
	app.Seal()
	sys.ActivateAt("low", 0)
	sys.ActivateAt("mid", vtime.Time(1*ms))
	rep := sys.Run(50 * ms)
	for _, tr := range rep.Tasks {
		if tr.Name == "mid" && tr.MaxResponse < 9*ms {
			t.Fatalf("mid responded in %s: it started under low's hold on R2", tr.MaxResponse)
		}
	}
	if n := sys.Log().CountKind(monitor.KindPriorityChange); n == 0 {
		t.Error("low never inherited mid's priority")
	}
}
