package cluster_test

import (
	"testing"

	"hades/internal/cluster"
	"hades/internal/heug"
	"hades/internal/sched"
	"hades/internal/vtime"
)

func modesRig(t *testing.T) *cluster.Cluster {
	t.Helper()
	sys := cluster.New(cluster.Config{Seed: 2})
	app := sys.NewApp("a", sched.NewEDF(10*us), nil)
	app.MustAddTask(simpleTask("full", heug.PeriodicEvery(10*ms), 0, 2*ms, 10*ms))
	app.MustAddTask(simpleTask("aux", heug.PeriodicEvery(20*ms), 0, 1*ms, 20*ms))
	app.MustAddTask(simpleTask("degraded", heug.PeriodicEvery(10*ms), 0, 500*us, 10*ms))
	app.Seal()
	if err := sys.DefineMode("normal", "full", "aux"); err != nil {
		t.Fatal(err)
	}
	if err := sys.DefineMode("safe", "degraded"); err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestModeEnterRunsItsTasks(t *testing.T) {
	sys := modesRig(t)
	if err := sys.EnterMode("normal"); err != nil {
		t.Fatal(err)
	}
	rep := sys.Run(100 * ms)
	counts := map[string]int{}
	for _, tr := range rep.Tasks {
		counts[tr.Name] = tr.Activations
	}
	if counts["full"] == 0 || counts["aux"] == 0 {
		t.Fatalf("normal-mode tasks idle: %v", counts)
	}
	if counts["degraded"] != 0 {
		t.Fatalf("safe-mode task ran in normal mode: %v", counts)
	}
	if sys.CurrentMode() != "normal" {
		t.Fatal("mode not recorded")
	}
}

func TestModeSwitchStopsOldStartsNew(t *testing.T) {
	sys := modesRig(t)
	if err := sys.EnterMode("normal"); err != nil {
		t.Fatal(err)
	}
	sys.Run(50 * ms)
	if _, err := sys.SwitchMode("safe", false); err != nil {
		t.Fatal(err)
	}
	before := sys.ResultNow()
	fullBefore := taskActivations(before, "full")
	rep := sys.Run(100 * ms)
	if got := taskActivations(rep, "full"); got != fullBefore {
		t.Fatalf("old-mode task still activating after switch: %d -> %d", fullBefore, got)
	}
	if taskActivations(rep, "degraded") == 0 {
		t.Fatal("new-mode task not activating")
	}
	if sys.CurrentMode() != "safe" {
		t.Fatal("mode not switched")
	}
}

func TestModeSwitchAbortsLiveInstances(t *testing.T) {
	sys := cluster.New(cluster.Config{Seed: 2})
	app := sys.NewApp("a", sched.NewEDF(10*us), nil)
	// A long-running task that will be mid-flight at the switch.
	app.MustAddTask(simpleTask("slow", heug.PeriodicEvery(50*ms), 0, 30*ms, 50*ms))
	app.MustAddTask(simpleTask("fallback", heug.PeriodicEvery(10*ms), 0, 500*us, 10*ms))
	app.Seal()
	if err := sys.DefineMode("normal", "slow"); err != nil {
		t.Fatal(err)
	}
	if err := sys.DefineMode("safe", "fallback"); err != nil {
		t.Fatal(err)
	}
	if err := sys.EnterMode("normal"); err != nil {
		t.Fatal(err)
	}
	sys.Run(10 * ms) // slow#1 is mid-execution
	aborted, err := sys.SwitchMode("safe", true)
	if err != nil {
		t.Fatal(err)
	}
	if aborted != 1 {
		t.Fatalf("aborted %d instances, want 1", aborted)
	}
	rep := sys.Run(100 * ms)
	if rep.Stats.Orphans == 0 {
		t.Fatal("no orphan threads recorded for the aborted instance")
	}
	if taskActivations(rep, "fallback") < 9 {
		t.Fatalf("fallback barely ran: %d", taskActivations(rep, "fallback"))
	}
}

func TestModeErrors(t *testing.T) {
	sys := modesRig(t)
	if err := sys.DefineMode("normal", "full"); err == nil {
		t.Fatal("duplicate mode accepted")
	}
	if err := sys.DefineMode("bad", "ghost-task"); err == nil {
		t.Fatal("unknown task accepted in mode")
	}
	if err := sys.EnterMode("ghost"); err == nil {
		t.Fatal("unknown mode entered")
	}
	if _, err := sys.SwitchMode("ghost", false); err == nil {
		t.Fatal("switch to unknown mode accepted")
	}
}

// TestFailureTriggeredModeSwitch wires the full §2.1 story: a fault
// detector suspicion triggers the switch to a degraded mode — the
// "switching of modes of operation in case of failure" mechanism.
func TestFailureTriggeredModeSwitch(t *testing.T) {
	sys := cluster.New(cluster.Config{Seed: 2})
	app := sys.NewApp("a", sched.NewEDF(10*us), nil)
	app.MustAddTask(simpleTask("primary", heug.PeriodicEvery(10*ms), 0, 1*ms, 10*ms))
	app.MustAddTask(simpleTask("backuptask", heug.PeriodicEvery(10*ms), 0, 1*ms, 10*ms))
	app.Seal()
	if err := sys.DefineMode("normal", "primary"); err != nil {
		t.Fatal(err)
	}
	if err := sys.DefineMode("degraded", "backuptask"); err != nil {
		t.Fatal(err)
	}
	if err := sys.EnterMode("normal"); err != nil {
		t.Fatal(err)
	}
	// Simulate a detector callback firing at 50 ms.
	sys.ActivateAt("primary", vtime.Time(0)) // extra manual activation is fine (monitored)
	sys.Run(50 * ms)
	if _, err := sys.SwitchMode("degraded", true); err != nil {
		t.Fatal(err)
	}
	rep := sys.Run(50 * ms)
	if sys.CurrentMode() != "degraded" {
		t.Fatal("not in degraded mode")
	}
	if taskActivations(rep, "backuptask") == 0 {
		t.Fatal("degraded task idle")
	}
}

func taskActivations(rep cluster.Result, name string) int {
	tr, _ := rep.Task(name)
	return tr.Activations
}

// TestModeSwitchAcrossNodes switches modes on a three-node cluster: the
// normal mode's pipeline crosses node 0 → node 1 and is mid-flight on
// the far node at the switch; the degraded mode runs local control on
// nodes 0 and 2 only.
func TestModeSwitchAcrossNodes(t *testing.T) {
	c := cluster.New(cluster.Config{Seed: 2})
	c.AddNodes(3)
	app := c.NewApp("a", sched.NewEDF(10*us), nil)
	app.MustAddTask(heug.NewTask("pipeline", heug.PeriodicEvery(50*ms)).
		WithDeadline(50*ms).
		Code("sense", heug.CodeEU{Node: 0, WCET: 1 * ms}).
		Code("actuate", heug.CodeEU{Node: 1, WCET: 30 * ms}).
		Precede("sense", "actuate").
		MustBuild())
	app.MustAddTask(simpleTask("local0", heug.PeriodicEvery(10*ms), 0, 500*us, 10*ms))
	app.MustAddTask(simpleTask("local2", heug.SporadicEvery(10*ms), 2, 500*us, 10*ms))
	if err := c.DefineMode("normal", "pipeline"); err != nil {
		t.Fatal(err)
	}
	if err := c.DefineMode("degraded", "local0", "local2"); err != nil {
		t.Fatal(err)
	}
	if err := c.EnterMode("normal"); err != nil {
		t.Fatal(err)
	}
	before := c.Run(10 * ms) // pipeline#1 has crossed the network and runs on node 1
	if before.Net.Delivered == 0 {
		t.Fatal("pipeline never crossed the network before the switch")
	}
	aborted, err := c.SwitchMode("degraded", true)
	if err != nil {
		t.Fatal(err)
	}
	if aborted != 1 {
		t.Fatalf("aborted %d instances, want the one in flight on node 1", aborted)
	}
	rep := c.Run(100 * ms)
	if got, was := taskActivations(rep, "pipeline"), taskActivations(before, "pipeline"); got != was {
		t.Fatalf("pipeline still activating after the switch: %d -> %d", was, got)
	}
	if tr, _ := rep.Task("pipeline"); tr.Completions != 0 {
		t.Fatalf("aborted pipeline instance completed %d time(s)", tr.Completions)
	}
	if rep.Stats.Orphans == 0 {
		t.Fatal("no orphan thread recorded for the instance aborted on node 1")
	}
	for _, name := range []string{"local0", "local2"} {
		if tr, _ := rep.Task(name); tr.Completions < 9 || tr.Misses != 0 {
			t.Fatalf("%s in degraded mode: %+v", name, tr)
		}
	}
	if c.CurrentMode() != "degraded" {
		t.Fatal("mode not switched")
	}
}
