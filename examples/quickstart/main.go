// Quickstart: the smallest useful HADES program.
//
// One node, an EDF application with two periodic tasks, the full §4
// cost book, a feasibility check before launch, and a run report —
// the complete admission-then-execution workflow of the paper, wired
// entirely through the cluster runtime layer.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"hades/internal/cluster"
	"hades/internal/dispatcher"
	"hades/internal/feasibility"
	"hades/internal/heug"
	"hades/internal/sched"
	"hades/internal/vtime"
)

const (
	us = vtime.Microsecond
	ms = vtime.Millisecond
)

func main() {
	// 1. Describe the cluster: one node, realistic middleware costs.
	costs := dispatcher.DefaultCostBook()
	c := cluster.New(cluster.Config{Seed: 1, Costs: costs})
	c.AddNode("ctrl")

	// 2. One application under EDF with SRP resource control.
	app := c.NewApp("quickstart", sched.NewEDF(20*us), sched.NewSRP())

	// A 10 ms control task: read a sensor, then run the control law
	// while holding the actuator bus exclusively.
	control := heug.NewTask("control", heug.PeriodicEvery(10*ms)).
		WithDeadline(10*ms).
		Code("read", heug.CodeEU{Node: 0, WCET: 300 * us, Action: func(ctx heug.ActionContext) {
			ctx.Out("sample", int64(ctx.Instance())) // pretend sensor value
		}}).
		Code("law", heug.CodeEU{Node: 0, WCET: 1200 * us,
			Resources: []heug.ResourceReq{{Resource: "bus", Mode: heug.Exclusive}}}).
		Precede("read", "law", "sample").
		MustBuild()

	// A slower 40 ms logging task sharing the bus (shared mode).
	logger := heug.NewTask("logger", heug.PeriodicEvery(40*ms)).
		WithDeadline(40*ms).
		Code("dump", heug.CodeEU{Node: 0, WCET: 3 * ms,
			Resources: []heug.ResourceReq{{Resource: "bus", Mode: heug.Shared}}}).
		MustBuild()

	// Spawn registers each task and drives it per its arrival law; the
	// analysis reads the same task, so it charges what the run does.
	var analysis []feasibility.Task
	for _, task := range []*heug.Task{control, logger} {
		app.MustSpawn(task)
		at, err := feasibility.FromHEUG(task)
		if err != nil {
			panic(err)
		}
		analysis = append(analysis, at)
	}

	// 3. Feasibility first (the §5.3 cost-integrated test): a
	// safety-critical system refuses to launch unguaranteed work.
	ov := &feasibility.Overheads{Book: costs, SchedCost: 20 * us}
	verdict := feasibility.EDFSpuri(analysis, ov)
	fmt.Printf("feasibility (cost-integrated): %v\n", verdict.Feasible)
	if !verdict.Feasible {
		fmt.Printf("refusing to launch: %s\n", verdict.Why)
		return
	}

	// 4. Run for one simulated second.
	result := c.Run(vtime.Second)

	// 5. Report.
	fmt.Print(result)
	fmt.Printf("events processed: %d, deadline misses: %d\n",
		c.Engine().EventsFired(), result.Stats.DeadlineMisses)
}
