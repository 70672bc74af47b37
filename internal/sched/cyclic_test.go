package sched_test

import (
	"strings"
	"testing"

	"hades/internal/cluster"
	"hades/internal/heug"
	"hades/internal/sched"
	"hades/internal/vtime"
)

func cyclicTask(name string, period, wcet vtime.Duration, offset vtime.Duration) *heug.Task {
	return heug.NewTask(name, heug.Arrival{Kind: heug.Periodic, Period: period, Offset: offset}).
		WithDeadline(period).
		Code("eu", heug.CodeEU{Node: 0, WCET: wcet}).
		MustBuild()
}

func TestCyclicPlanHyperperiod(t *testing.T) {
	c := sched.NewCyclic(5 * us)
	c.Init([]*heug.Task{
		cyclicTask("a", 10*ms, 2*ms, 0),
		cyclicTask("b", 20*ms, 4*ms, 0),
		cyclicTask("c", 40*ms, 6*ms, 0),
	})
	if err := c.PlanError(); err != nil {
		t.Fatal(err)
	}
	if c.Hyperperiod() != 40*ms {
		t.Fatalf("hyperperiod %s, want 40ms", c.Hyperperiod())
	}
}

func TestCyclicDetectsInfeasiblePlan(t *testing.T) {
	c := sched.NewCyclic(0)
	c.Init([]*heug.Task{
		cyclicTask("a", 10*ms, 6*ms, 0),
		cyclicTask("b", 10*ms, 6*ms, 0), // 12ms of work per 10ms frame
	})
	if c.PlanError() == nil {
		t.Fatal("overloaded plan accepted")
	}
	if !strings.Contains(c.PlanError().Error(), "misses its deadline") {
		t.Fatalf("unexpected error: %v", c.PlanError())
	}
}

func TestCyclicRejectsNonPeriodic(t *testing.T) {
	c := sched.NewCyclic(0)
	c.Init([]*heug.Task{
		heug.NewTask("s", heug.SporadicEvery(10*ms)).
			WithDeadline(10*ms).
			Code("eu", heug.CodeEU{Node: 0, WCET: ms}).
			MustBuild(),
	})
	if c.PlanError() == nil {
		t.Fatal("sporadic task accepted by cyclic planner")
	}
}

func TestCyclicRejectsMultiEU(t *testing.T) {
	c := sched.NewCyclic(0)
	task := heug.NewTask("m", heug.PeriodicEvery(10*ms)).
		WithDeadline(10*ms).
		Code("a", heug.CodeEU{Node: 0, WCET: ms}).
		Code("b", heug.CodeEU{Node: 0, WCET: ms}).
		Precede("a", "b").
		MustBuild()
	c.Init([]*heug.Task{task})
	if c.PlanError() == nil {
		t.Fatal("multi-EU task accepted by cyclic planner")
	}
}

func TestCyclicExecutionFollowsPlan(t *testing.T) {
	sys := cluster.New(cluster.Config{Seed: 1})
	cyc := sched.NewCyclic(5 * us)
	app := sys.NewApp("cyclic", cyc, nil)
	app.MustAddTask(cyclicTask("a", 10*ms, 2*ms, 0))
	app.MustAddTask(cyclicTask("b", 20*ms, 4*ms, 0))
	app.Seal()
	if err := cyc.PlanError(); err != nil {
		t.Fatal(err)
	}
	if err := sys.StartPeriodic("a"); err != nil {
		t.Fatal(err)
	}
	if err := sys.StartPeriodic("b"); err != nil {
		t.Fatal(err)
	}
	rep := sys.Run(400 * ms)
	if rep.Stats.DeadlineMisses != 0 {
		t.Fatalf("cyclic plan missed %d deadlines", rep.Stats.DeadlineMisses)
	}
	// Plan determinism: responses repeat every hyperperiod. The only
	// admissible jitter is the scheduler's own notification processing
	// (frames with one Atv vs two differ by Cost), so max − avg stays
	// within a couple of notification costs.
	for _, tr := range rep.Tasks {
		if jitter := tr.MaxResponse - tr.AvgResponse; jitter > 3*(5*us) {
			t.Errorf("task %s: response jitter %s under a static plan (avg %s, max %s)",
				tr.Name, jitter, tr.AvgResponse, tr.MaxResponse)
		}
	}
}

func TestCyclicWithOffsets(t *testing.T) {
	sys := cluster.New(cluster.Config{Seed: 1})
	cyc := sched.NewCyclic(0)
	app := sys.NewApp("cyclic", cyc, nil)
	app.MustAddTask(cyclicTask("a", 10*ms, 3*ms, 0))
	app.MustAddTask(cyclicTask("b", 10*ms, 3*ms, 5*ms))
	app.Seal()
	if err := cyc.PlanError(); err != nil {
		t.Fatal(err)
	}
	_ = sys.StartPeriodic("a")
	_ = sys.StartPeriodic("b")
	rep := sys.Run(200 * ms)
	if rep.Stats.DeadlineMisses != 0 {
		t.Fatalf("offset plan missed %d", rep.Stats.DeadlineMisses)
	}
}
