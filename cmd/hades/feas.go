package main

import (
	"cmp"
	"fmt"
	"io"

	"hades/internal/expkit"
	"hades/internal/feasibility"
	"hades/internal/vtime"
)

// feasCmd runs the feasibility tests of §5 on a scenario's task set: the
// naive Spuri EDF+SRP processor-demand test, the §5.3 cost-integrated
// variant, fixed-priority response-time analysis, and the Liu–Layland
// bound — then, with -validate, checks the cost-integrated verdict by
// simulating the analysis task set (expkit.SimulateEDFSRP), which is
// not the scenario's own run: see the flag's help.
func feasCmd(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("feas", stderr)
	var (
		open     = scenarioFlags(fs)
		validate = fs.Bool("validate", false, "also simulate the analysis task set with the full cost book: one node, EDF+SRP, each C split evenly around its critical section (not the scenario's own nodes, scheduler or split)")
	)
	if fs.Parse(args) != nil {
		return exitUsage
	}
	spec, err := open()
	if err != nil {
		return cannot(stderr, "feas", err)
	}

	tasks, err := spec.AnalysisTasks()
	if err != nil {
		return cannot(stderr, "feas", err)
	}
	book, err := spec.CostBook()
	if err != nil {
		return cannot(stderr, "feas", err)
	}
	ov := expkit.Overheads(book)

	fmt.Fprintf(stdout, "task set %q (n=%d, U=%.4f):\n", spec.Name, len(tasks), feasibility.Utilization(tasks))
	for _, t := range tasks {
		fmt.Fprintf(stdout, "  %-8s C=%-10s D=%-10s T=%-10s CS=%-8s R=%s\n",
			t.Name, t.C, t.D, t.T, t.CS, cmp.Or(t.Resource, "-"))
	}
	fmt.Fprintln(stdout)

	naive := feasibility.EDFSpuri(tasks, nil)
	integrated := feasibility.EDFSpuri(tasks, ov)
	printVerdict(stdout, "EDF+SRP (naive, no costs)", naive)
	printVerdict(stdout, "EDF+SRP (§5.3 cost-integrated)", integrated)

	// Membership-aware admission: when the scenario declares groups (or
	// a sharded data plane), one failover window — the provable
	// view-change bound — is charged as a top-priority blackout, so
	// the admitted set stays schedulable across a failover.
	if len(spec.Groups) > 0 || spec.Shards != nil {
		clu, err := spec.Build()
		if err != nil {
			fmt.Fprintf(stderr, "warning: cannot compute the view-change blackout (scenario build failed: %v)\n", err)
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
				printVerdict(stdout, fmt.Sprintf("EDF+SRP (+view-change blackout %s)", blackout),
					feasibility.EDFSpuri(tasks, &ovb))
			}
		}
	}

	rs, all := feasibility.ResponseTime(tasks, feasibility.DeadlineMonotonic, ov)
	fmt.Fprintf(stdout, "%-34s feasible=%v\n", "DM response-time (with costs):", all)
	for _, r := range rs {
		fmt.Fprintf(stdout, "  %-8s R=%-12s B=%-10s meets=%v\n", r.Task, r.R, r.Blocking, r.Meets)
	}
	ll := feasibility.LiuLayland(tasks)
	fmt.Fprintf(stdout, "%-34s feasible=%v %s\n", "RM utilisation bound (implicit D):", ll.Feasible, ll.Why)

	if *validate {
		fmt.Fprintln(stdout, "\nvalidating by simulation (full cost book, worst-case arrivals)...")
		rep := expkit.SimulateEDFSRP(tasks, book, spec.Horizon(), spec.Seed)
		fmt.Fprintf(stdout, "  misses: %d over %d activations\n", rep.Stats.DeadlineMisses, rep.Stats.Activations)
		if integrated.Feasible && rep.Stats.DeadlineMisses > 0 {
			fmt.Fprintln(stdout, "  WARNING: integrated test admitted a set that missed — report this")
			return exitBad
		}
	}
	return exitOK
}

func printVerdict(stdout io.Writer, name string, v feasibility.Verdict) {
	fmt.Fprintf(stdout, "%-34s feasible=%v", name+":", v.Feasible)
	if !v.Feasible {
		fmt.Fprintf(stdout, "  (%s at d=%s)", v.Why, v.FailAt)
	} else {
		fmt.Fprintf(stdout, "  (busy period %s, %d deadlines checked)", v.BusyPeriod, v.Checked)
	}
	fmt.Fprintln(stdout)
}
