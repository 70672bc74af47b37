package main

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"

	"hades/internal/cluster"
	"hades/internal/monitor"
	"hades/internal/trace"
)

// runCmd runs a scenario — a task set under a chosen scheduler and
// resource protocol on a described cluster (nodes, bounded-delay links,
// placement, fault schedules) — and prints its one account: the Result
// table, the violations, the fault timeline and the verdict of the
// end-of-run audits, which also set the exit code. -trace exports
// the run's retained causal traces as Chrome trace-event JSON, loadable
// in Perfetto (https://ui.perfetto.dev) or chrome://tracing; -metrics
// exports the virtual-time metrics timeline (per-interval series, SLO
// breach windows, hot keys) as JSON for hades metrics.
func runCmd(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("run", stderr)
	var (
		open       = scenarioFlags(fs)
		traceOut   = fs.String("trace", "", "export retained causal traces as Chrome trace-event JSON to this file (Perfetto-loadable)")
		metricsOut = fs.String("metrics", "", "export the metrics timeline (per-interval series, SLO breaches, hot keys) as JSON to this file")
		events     = fs.Bool("events", false, "print the full monitor event trace")
		gantt      = fs.Bool("gantt", false, "print a per-node CPU occupancy chart")
	)
	if fs.Parse(args) != nil {
		return exitUsage
	}
	spec, clu, rep, err := simulate(open)
	if err != nil {
		return cannot(stderr, "run", err)
	}
	fmt.Fprintf(stdout, "scenario %q: %d node(s), %d link(s), %d fault(s), scheduler %s, policy %s, costs %s\n",
		spec.Name, spec.Nodes, len(spec.Links), len(spec.Faults), spec.Scheduler, cmp.Or(spec.Policy, "none"), cmp.Or(spec.Costs, "default"))
	fmt.Fprint(stdout, rep)
	printEvents(stdout, "violations", rep.Violations)
	printEvents(stdout, "faults", rep.Faults)
	if *gantt {
		for node := 0; node < spec.Nodes; node++ {
			fmt.Fprintf(stdout, "--- gantt node %d ---\n", node)
			fmt.Fprint(stdout, clu.Log().Gantt(node, 0, clu.Now(), 100))
		}
	}
	if *events {
		fmt.Fprintln(stdout, "--- events ---")
		if err := clu.Log().WriteTrace(stdout); err != nil {
			return cannot(stderr, "run", err)
		}
	}
	if *traceOut != "" {
		tr := clu.Tracer()
		if tr == nil {
			return cannot(stderr, "run", errors.New("-trace needs tracing enabled (the scenario disabled it)"))
		}
		write := func(w io.Writer) error { return trace.WriteChrome(w, tr.Retained()) }
		if err := export(*traceOut, "trace", write); err != nil {
			return cannot(stderr, "run", err)
		}
		_, _, retained, _ := tr.Counts()
		fmt.Fprintf(stdout, "wrote %d trace(s) to %s (load in https://ui.perfetto.dev)\n", retained, *traceOut)
	}
	if *metricsOut != "" {
		reg := clu.Metrics()
		if reg == nil {
			return cannot(stderr, "run", errors.New("-metrics needs the metrics plane enabled (the scenario disabled it)"))
		}
		if err := export(*metricsOut, "metrics", reg.WriteJSON); err != nil {
			return cannot(stderr, "run", err)
		}
		ex := reg.Export()
		fmt.Fprintf(stdout, "wrote %d series (%d scrapes) to %s (inspect with hades metrics)\n",
			len(ex.Series), ex.Scrapes, *metricsOut)
	}
	// The audits gate the exit code only after every requested export
	// has been written, so CI keeps the artifacts of a failing run.
	if err := verify(clu); err != nil {
		fmt.Fprintf(stdout, "audits: FAILED: %s\n", strings.ReplaceAll(err.Error(), "\n", "; "))
		fmt.Fprintf(stderr, "hades run: verification failed: %v\n", err)
		return exitBad
	}
	fmt.Fprintln(stdout, "audits: ok")
	return exitOK
}

// printEvents lists a run's monitor events of one kind under a header
// naming them, and nothing when there are none.
func printEvents(stdout io.Writer, name string, events []monitor.Event) {
	if len(events) == 0 {
		return
	}
	fmt.Fprintf(stdout, "%s (%d):\n", name, len(events))
	for _, e := range events {
		fmt.Fprintln(stdout, " ", e)
	}
}

// export creates path, lets write fill it and closes it; what names
// the artifact.
func export(path, what string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("cannot write %s file: %v", what, err)
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing %s: %v", path, err)
	}
	return nil
}

// verify is the end-of-run audit; tests swap it to force a failure.
var verify = (*cluster.Cluster).Verify
