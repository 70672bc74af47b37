package cluster_test

import (
	"fmt"

	"hades/internal/cluster"
	"hades/internal/dispatcher"
	"hades/internal/heug"
	"hades/internal/sched"
	"hades/internal/vtime"
)

// Example shows the complete HADES workflow: assemble a platform,
// declare an application under a scheduling policy, add a HEUG task,
// and run — the executable version of the README's quickstart.
func Example() {
	sys := cluster.New(cluster.Config{Seed: 1, Costs: dispatcher.DefaultCostBook()})
	app := sys.NewApp("demo", sched.NewEDF(20*vtime.Microsecond), sched.NewSRP())

	task := heug.NewTask("sense", heug.PeriodicEvery(10*vtime.Millisecond)).
		WithDeadline(10*vtime.Millisecond).
		Code("read", heug.CodeEU{Node: 0, WCET: 500 * vtime.Microsecond}).
		MustBuild()
	app.MustAddTask(task)
	app.Seal()

	if err := sys.StartPeriodic("sense"); err != nil {
		panic(err)
	}
	rep := sys.Run(100 * vtime.Millisecond)
	fmt.Printf("completions=%d misses=%d\n",
		rep.Stats.Completions, rep.Stats.DeadlineMisses)
	// Output: completions=10 misses=0
}

// ExampleCluster_SwitchMode demonstrates operational modes: a failure
// response switches from the normal task set to a degraded one,
// aborting what was mid-flight.
func ExampleCluster_SwitchMode() {
	sys := cluster.New(cluster.Config{Seed: 1})
	app := sys.NewApp("modes", sched.NewEDF(0), nil)
	app.MustAddTask(heug.NewTask("full", heug.PeriodicEvery(20*vtime.Millisecond)).
		WithDeadline(20*vtime.Millisecond).
		Code("eu", heug.CodeEU{Node: 0, WCET: 15 * vtime.Millisecond}).
		MustBuild())
	app.MustAddTask(heug.NewTask("lite", heug.PeriodicEvery(20*vtime.Millisecond)).
		WithDeadline(20*vtime.Millisecond).
		Code("eu", heug.CodeEU{Node: 0, WCET: 1 * vtime.Millisecond}).
		MustBuild())
	app.Seal()
	if err := sys.DefineMode("normal", "full"); err != nil {
		panic(err)
	}
	if err := sys.DefineMode("degraded", "lite"); err != nil {
		panic(err)
	}
	if err := sys.EnterMode("normal"); err != nil {
		panic(err)
	}
	sys.Run(10 * vtime.Millisecond) // "full" is mid-execution
	aborted, err := sys.SwitchMode("degraded", true)
	if err != nil {
		panic(err)
	}
	sys.Run(50 * vtime.Millisecond)
	fmt.Printf("aborted=%d mode=%s\n", aborted, sys.CurrentMode())
	// Output: aborted=1 mode=degraded
}
