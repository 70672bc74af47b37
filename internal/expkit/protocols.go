package expkit

import (
	"fmt"

	"hades/internal/dispatcher"
	"hades/internal/heug"
	"hades/internal/monitor"
	"hades/internal/sched"
	"hades/internal/vtime"
)

// inversionRun executes the canonical L/M/H priority-inversion workload
// repeatedly under one resource policy, returning H's worst response,
// the preemption count and the priority-change count.
func inversionRun(opts Options, policy dispatcher.ResourcePolicy) (vtime.Duration, int, int) {
	low := heug.NewTask("low", heug.SporadicEvery(50*ms)).
		WithDeadline(45*ms).
		Code("cs", heug.CodeEU{Node: 0, WCET: 8 * ms,
			Resources: []heug.ResourceReq{{Resource: "R", Mode: heug.Exclusive}}}).
		MustBuild()
	mid := heug.NewTask("mid", heug.SporadicEvery(50*ms)).
		WithDeadline(40*ms).
		Code("work", heug.CodeEU{Node: 0, WCET: 15 * ms}).
		MustBuild()
	high := heug.NewTask("high", heug.SporadicEvery(50*ms)).
		WithDeadline(20*ms).
		Code("use", heug.CodeEU{Node: 0, WCET: 1 * ms,
			Resources: []heug.ResourceReq{{Resource: "R", Mode: heug.Exclusive}}}).
		MustBuild()
	sys := newCluster(1, opts.Seed, dispatcher.CostBook{})
	app := sys.NewApp("inv", sched.NewDM(), policy)
	app.MustAddTask(low)
	app.MustAddTask(mid)
	app.MustAddTask(high)
	app.Seal()
	// Staggered arrivals per 50 ms hyper-round: L at 0, H at 1 ms,
	// M at 2 ms — the textbook inversion pattern.
	_ = sys.StartSporadic("low", nil)
	high.Arrival.Offset = 1 * ms
	mid.Arrival.Offset = 2 * ms
	_ = sys.StartSporadic("high", nil)
	_ = sys.StartSporadic("mid", nil)
	horizon := 500 * ms
	if opts.Quick {
		horizon = 150 * ms
	}
	rep := sys.Run(horizon)
	var rHigh vtime.Duration
	for _, tr := range rep.Tasks {
		if tr.Name == "high" {
			rHigh = tr.MaxResponse
		}
	}
	prioChanges := sys.Log().CountKind(monitor.KindPriorityChange)
	return rHigh, sys.Engine().Processors()[0].Preemptions(), prioChanges
}

// runX2 reproduces the §3.3/footnote-2 protocol comparison: no
// protocol vs PCP vs SRP on the canonical inversion workload. The
// expected shape: both protocols bound H's blocking to one critical
// section; SRP does it with zero priority manipulation and fewer
// preemptions; no protocol leaves H exposed to M's entire execution.
func runX2(opts Options) Table {
	tbl := Table{
		ID:      "X2",
		Title:   "PCP vs SRP vs no protocol — priority-inversion bounding (DM, L/M/H workload)",
		Columns: []string{"policy", "H max response", "preemptions", "priority changes", "inversion bounded"},
	}
	type row struct {
		name   string
		policy dispatcher.ResourcePolicy
	}
	rows := []row{
		{"none", nil},
		{"PCP", sched.NewPCP()},
		{"SRP", sched.NewSRP()},
	}
	// Bound: L's critical section (8 ms) + H's own 1 ms + dispatch slack.
	bound := 10 * ms
	for _, r := range rows {
		resp, preempts, prios := inversionRun(opts, r.policy)
		tbl.Rows = append(tbl.Rows, []string{
			r.name, resp.String(), fmt.Sprint(preempts), fmt.Sprint(prios),
			fmt.Sprint(resp <= bound),
		})
	}
	tbl.Notes = append(tbl.Notes,
		"without a protocol, M's 15 ms preempts L while H waits on R: unbounded inversion",
		"PCP bounds blocking via inheritance (priority-change traffic); SRP via the start gate (none)")
	return tbl
}
