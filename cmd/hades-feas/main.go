// Command hades-feas runs the feasibility tests of §5 on a scenario's
// task set: the naive Spuri EDF+SRP processor-demand test, the §5.3
// cost-integrated variant, fixed-priority response-time analysis, and
// the Liu–Layland bound — then optionally validates the verdicts by
// simulation.
//
// Usage:
//
//	hades-feas -builtin spuri-example
//	hades-feas -scenario myset.json -validate
package main

import (
	"flag"
	"fmt"
	"os"

	"hades/internal/expkit"
	"hades/internal/feasibility"
	"hades/internal/scenario"
	"hades/internal/vtime"
)

func main() {
	var (
		builtin  = flag.String("builtin", "", "built-in scenario name")
		file     = flag.String("scenario", "", "scenario JSON file")
		validate = flag.Bool("validate", false, "also run the costed simulation")
	)
	flag.Parse()

	spec, err := scenario.Open(*builtin, *file)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	tasks := spec.AnalysisTasks()
	book := spec.CostBook()
	ov := &feasibility.Overheads{Book: book, SchedCost: 20 * vtime.Microsecond}

	fmt.Printf("task set %q (n=%d, U=%.4f):\n", spec.Name, len(tasks), feasibility.Utilization(tasks))
	for _, t := range tasks {
		fmt.Printf("  %-8s C=%-10s D=%-10s T=%-10s CS=%-8s R=%s\n",
			t.Name, t.C, t.D, t.T, t.CS, orDash(t.Resource))
	}
	fmt.Println()

	naive := feasibility.EDFSpuri(tasks, nil)
	integrated := feasibility.EDFSpuri(tasks, ov)
	printVerdict("EDF+SRP (naive, no costs)", naive)
	printVerdict("EDF+SRP (§5.3 cost-integrated)", integrated)

	// Membership-aware admission: when the scenario declares groups (or
	// a sharded data plane), one failover window — the provable
	// view-change bound — is charged as a top-priority blackout, so
	// the admitted set stays schedulable across a failover.
	if len(spec.Groups) > 0 || spec.Shards != nil {
		clu, err := spec.Build()
		if err != nil {
			fmt.Fprintf(os.Stderr, "warning: cannot compute the view-change blackout (scenario build failed: %v)\n", err)
		} else {
			var blackout vtime.Duration
			for _, g := range clu.Groups() {
				if b := g.Membership().Bound(); b > blackout {
					blackout = b
				}
			}
			if blackout > 0 {
				ovb := *ov
				ovb.ViewChangeBlackout = blackout
				printVerdict(fmt.Sprintf("EDF+SRP (+view-change blackout %s)", blackout),
					feasibility.EDFSpuri(tasks, &ovb))
			}
		}
	}

	if rs, all := feasibility.ResponseTime(tasks, feasibility.DeadlineMonotonic, ov); true {
		fmt.Printf("%-34s feasible=%v\n", "DM response-time (with costs):", all)
		for _, r := range rs {
			fmt.Printf("  %-8s R=%-12s B=%-10s meets=%v\n", r.Task, r.R, r.Blocking, r.Meets)
		}
	}
	ll := feasibility.LiuLayland(tasks)
	fmt.Printf("%-34s feasible=%v %s\n", "RM utilisation bound (implicit D):", ll.Feasible, ll.Why)

	if *validate {
		fmt.Println("\nvalidating by simulation (full cost book, worst-case arrivals)...")
		rep := expkit.SimulateEDFSRP(tasks, book, spec.Horizon(), spec.Seed)
		fmt.Printf("  misses: %d over %d activations\n", rep.Stats.DeadlineMisses, rep.Stats.Activations)
		if integrated.Feasible && rep.Stats.DeadlineMisses > 0 {
			fmt.Println("  WARNING: integrated test admitted a set that missed — report this")
			os.Exit(2)
		}
	}
}

func printVerdict(name string, v feasibility.Verdict) {
	fmt.Printf("%-34s feasible=%v", name+":", v.Feasible)
	if !v.Feasible {
		fmt.Printf("  (%s at d=%s)", v.Why, v.FailAt)
	} else {
		fmt.Printf("  (busy period %s, %d deadlines checked)", v.BusyPeriod, v.Checked)
	}
	fmt.Println()
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
