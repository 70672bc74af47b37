// Cohabitation: the §2.2.1 discussion made concrete — "restrict the
// cohabitation between a single scheduler implementing a feasibility
// test and any number of best-effort schedulers".
//
// One node hosts a *guaranteed* EDF application (admitted by the §5.3
// cost-integrated test) and two best-effort applications that together
// would oversubscribe the CPU. The priority-band separation makes the
// guaranteed application immune: it misses nothing, while the
// best-effort load absorbs whatever slack remains.
//
//	go run ./examples/cohabitation
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
	costs := dispatcher.DefaultCostBook()
	c := cluster.New(cluster.Config{Seed: 5, Costs: costs})
	c.AddNode("shared")

	// Guaranteed application: EDF + SRP, admitted by the integrated test.
	guaranteed := c.NewApp("guaranteed", sched.NewEDF(20*us), sched.NewSRP())
	specs := []heug.SpuriTask{
		{Name: "g.fast", Node: 0, CBefore: 1 * ms, Deadline: 5 * ms, PseudoPeriod: 10 * ms},
		{Name: "g.slow", Node: 0, CBefore: 2 * ms, CS: 1 * ms, CAfter: 1 * ms,
			Resource: "R", Deadline: 20 * ms, PseudoPeriod: 40 * ms},
	}
	var analysis []feasibility.Task
	for _, st := range specs {
		task, err := st.ToHEUG()
		must(err)
		must(guaranteed.Spawn(task)) // sporadic → worst-case arrivals
		at, err := feasibility.FromHEUG(task)
		must(err)
		analysis = append(analysis, at)
	}

	ov := &feasibility.Overheads{Book: costs, SchedCost: 20 * us}
	verdict := feasibility.EDFSpuri(analysis, ov)
	fmt.Printf("guaranteed app admitted by §5.3 test: %v (U=%.3f)\n",
		verdict.Feasible, feasibility.Utilization(analysis))
	if !verdict.Feasible {
		panic("admission failed; adjust the workload")
	}

	// Two best-effort applications that would need ~130% CPU alone.
	for i, period := range []vtime.Duration{7 * ms, 9 * ms} {
		be := c.NewApp(fmt.Sprintf("besteffort%d", i+1), sched.NewBestEffort(), nil)
		be.MustSpawn(heug.NewTask(fmt.Sprintf("be%d", i+1), heug.PeriodicEvery(period)).
			Code("churn", heug.CodeEU{Node: 0, WCET: 5 * ms}).
			MustBuild())
	}

	result := c.Run(vtime.Second)
	fmt.Print(result)

	fmt.Println("--- cohabitation verdict ---")
	for _, tr := range result.Tasks {
		switch {
		case tr.Name == "g.fast" || tr.Name == "g.slow":
			fmt.Printf("%-8s guaranteed:  misses=%d (must be 0)\n", tr.Name, tr.Misses)
		default:
			starved := tr.Completions == 0
			fmt.Printf("%-8s best-effort: completions=%d/%d (no guarantee, starved=%v)\n",
				tr.Name, tr.Completions, tr.Activations, starved)
		}
	}
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
