package cluster_test

import (
	"strings"
	"testing"

	"hades/internal/cluster"
	"hades/internal/dispatcher"
	"hades/internal/heug"
	"hades/internal/sched"
	"hades/internal/vtime"
)

func simpleTask(name string, arrival heug.Arrival, node int, wcet, deadline vtime.Duration) *heug.Task {
	return heug.NewTask(name, arrival).
		WithDeadline(deadline).
		Code("eu", heug.CodeEU{Node: node, WCET: wcet}).
		MustBuild()
}

func TestPeriodicGeneratorFollowsLaw(t *testing.T) {
	sys := cluster.New(cluster.Config{Seed: 1})
	app := sys.NewApp("a", sched.NewRM(), nil)
	app.MustAddTask(simpleTask("p", heug.PeriodicEvery(10*ms), 0, 500*us, 10*ms))
	app.Seal()
	if err := sys.StartPeriodic("p"); err != nil {
		t.Fatal(err)
	}
	rep := sys.Run(105 * ms)
	// Releases at t = 0, 10, ..., 100: eleven activations.
	if rep.Stats.Activations != 11 {
		t.Fatalf("activations %d, want 11 in 105ms at 10ms period (offset 0)", rep.Stats.Activations)
	}
	if rep.Stats.ArrivalViolations != 0 {
		t.Fatalf("generator violated its own law: %d", rep.Stats.ArrivalViolations)
	}
}

func TestPeriodicRejectsWrongLaw(t *testing.T) {
	sys := cluster.New(cluster.Config{Seed: 1})
	app := sys.NewApp("a", sched.NewRM(), nil)
	app.MustAddTask(simpleTask("s", heug.SporadicEvery(10*ms), 0, 500*us, 10*ms))
	app.Seal()
	if err := sys.StartPeriodic("s"); err == nil {
		t.Fatal("StartPeriodic accepted a sporadic task")
	}
	if err := sys.StartSporadicWorstCase("nope"); err == nil {
		t.Fatal("unknown task accepted")
	}
}

func TestSporadicWithGapsKeepsLaw(t *testing.T) {
	sys := cluster.New(cluster.Config{Seed: 1})
	app := sys.NewApp("a", sched.NewRM(), nil)
	app.MustAddTask(simpleTask("s", heug.SporadicEvery(10*ms), 0, 500*us, 10*ms))
	app.Seal()
	if err := sys.StartSporadic("s", func(k uint64) vtime.Duration {
		return vtime.Duration(k%3) * ms // jittered but never early
	}); err != nil {
		t.Fatal(err)
	}
	rep := sys.Run(200 * ms)
	if rep.Stats.ArrivalViolations != 0 {
		t.Fatalf("sporadic generator violated the pseudo-period: %d", rep.Stats.ArrivalViolations)
	}
	if rep.Stats.Activations < 15 {
		t.Fatalf("activations %d", rep.Stats.Activations)
	}
}

func TestActivateOnCond(t *testing.T) {
	sys := cluster.New(cluster.Config{Seed: 1})
	app := sys.NewApp("a", sched.NewRM(), nil)
	app.MustAddTask(simpleTask("alarm", heug.AperiodicLaw(), 0, 100*us, 5*ms))
	setter := heug.NewTask("setter", heug.AperiodicLaw()).
		WithDeadline(10*ms).
		Code("s", heug.CodeEU{Node: 0, WCET: 100 * us, Action: func(ctx heug.ActionContext) {
			ctx.SetCond("event")
		}}).
		MustBuild()
	app.MustAddTask(setter)
	app.Seal()
	sys.ActivateOnCond("event", "alarm")
	sys.ActivateAt("setter", vtime.Time(20*ms))
	rep := sys.Run(50 * ms)
	var alarmDone int
	for _, tr := range rep.Tasks {
		if tr.Name == "alarm" {
			alarmDone = tr.Completions
		}
	}
	if alarmDone != 1 {
		t.Fatalf("alarm completions %d, want 1 (event-triggered)", alarmDone)
	}
}

func TestMultiAppIsolationBands(t *testing.T) {
	sys := cluster.New(cluster.Config{Seed: 1, Costs: dispatcher.DefaultCostBook()})
	g := sys.NewApp("g", sched.NewEDF(10*us), nil)
	g.MustAddTask(simpleTask("crit", heug.PeriodicEvery(10*ms), 0, 3*ms, 10*ms))
	g.Seal()
	be := sys.NewApp("be", sched.NewBestEffort(), nil)
	be.MustAddTask(heug.NewTask("noise", heug.PeriodicEvery(4*ms)).
		Code("eu", heug.CodeEU{Node: 0, WCET: 3 * ms}).
		MustBuild())
	be.Seal()
	if err := sys.StartPeriodic("crit"); err != nil {
		t.Fatal(err)
	}
	if err := sys.StartPeriodic("noise"); err != nil {
		t.Fatal(err)
	}
	rep := sys.Run(500 * ms)
	for _, tr := range rep.Tasks {
		if tr.Name == "crit" && tr.Misses > 0 {
			t.Fatalf("guaranteed task missed %d deadlines under best-effort overload", tr.Misses)
		}
	}
}

func TestReportString(t *testing.T) {
	sys := cluster.New(cluster.Config{Seed: 1})
	app := sys.NewApp("a", sched.NewRM(), nil)
	app.MustAddTask(simpleTask("x", heug.PeriodicEvery(10*ms), 0, 1*ms, 10*ms))
	app.Seal()
	if err := sys.StartPeriodic("x"); err != nil {
		t.Fatal(err)
	}
	rep := sys.Run(50 * ms)
	s := rep.String()
	for _, want := range []string{"activations=", "x", "miss=0"} {
		if !strings.Contains(s, want) {
			t.Errorf("report %q missing %q", s, want)
		}
	}
}

func TestRunIsResumable(t *testing.T) {
	sys := cluster.New(cluster.Config{Seed: 1})
	app := sys.NewApp("a", sched.NewRM(), nil)
	app.MustAddTask(simpleTask("x", heug.PeriodicEvery(10*ms), 0, 1*ms, 10*ms))
	app.Seal()
	if err := sys.StartPeriodic("x"); err != nil {
		t.Fatal(err)
	}
	r1 := sys.Run(50 * ms)
	r2 := sys.Run(50 * ms)
	if r2.Until != vtime.Time(100*ms) {
		t.Fatalf("second run ended at %s", r2.Until)
	}
	if r2.Stats.Activations <= r1.Stats.Activations {
		t.Fatal("no progress across Run calls")
	}
}

func TestSingleNodeHasNoNetwork(t *testing.T) {
	sys := cluster.New(cluster.Config{Seed: 1})
	if sys.Network() != nil {
		t.Fatal("single-node system grew a network")
	}
	multi := cluster.New(cluster.Config{Seed: 1})
	multi.AddNodes(3)
	if multi.Network() == nil {
		t.Fatal("multi-node system has no network")
	}
	if d, ok := multi.Network().DelayBound(0, 2); !ok || d <= 0 {
		t.Fatal("default mesh not connected")
	}
}

func TestAddSpuriIntegration(t *testing.T) {
	sys := cluster.New(cluster.Config{Seed: 1})
	app := sys.NewApp("a", sched.NewEDF(10*us), sched.NewSRP())
	err := app.AddSpuri(heug.SpuriTask{
		Name: "st", CBefore: 200 * us, CS: 100 * us, CAfter: 100 * us,
		Resource: "S", Deadline: 5 * ms, PseudoPeriod: 10 * ms,
	})
	if err != nil {
		t.Fatal(err)
	}
	app.Seal()
	if err := sys.StartSporadicWorstCase("st"); err != nil {
		t.Fatal(err)
	}
	rep := sys.Run(100 * ms)
	if rep.Stats.DeadlineMisses != 0 || rep.Stats.Completions < 9 {
		t.Fatalf("stats %+v", rep.Stats)
	}
}

func TestDuplicateTaskRejected(t *testing.T) {
	sys := cluster.New(cluster.Config{Seed: 1})
	app := sys.NewApp("a", sched.NewRM(), nil)
	task := simpleTask("dup", heug.PeriodicEvery(10*ms), 0, 1*ms, 10*ms)
	app.MustAddTask(task)
	if err := app.Spawn(task); err == nil {
		t.Fatal("duplicate registration accepted")
	}
}
