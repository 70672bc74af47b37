// Command hades is the one front end to the HADES reproduction: it runs
// scenarios, persists and gates their performance reports, inspects the
// artifacts a run exports, runs the §5 feasibility tests and regenerates
// the paper's experiments.
//
// Usage:
//
//	hades list                                       # built-in scenarios
//	hades run -builtin sharded-kv -gantt
//	hades run -scenario myset.json -trace t.json -metrics m.json
//	hades load -builtin load-ramp -out LOAD_load-ramp.json
//	hades diff -threshold 0.25 old.json new.json
//	hades check t.json m.json LOAD_load-ramp.json    # kind read off each file
//	hades trace -top 3 t.json
//	hades metrics -slo m.json
//	hades feas -builtin spuri-example -validate
//	hades exp -run S5 -quick
//
// Every subcommand follows one exit-code rule: 0 — it ran and the answer
// is good; 1 — it ran and the answer is bad (an end-of-run audit failed,
// a report regressed, an artifact is invalid or empty, an admitted task
// set missed a deadline); 2 — it could not run (unknown subcommand or
// flag, missing or unknown scenario, unreadable or unwritable file,
// malformed input).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"hades/internal/cluster"
	"hades/internal/monitor"
	"hades/internal/scenario"
)

const (
	exitOK    = 0 // ran, and the answer is good
	exitBad   = 1 // ran, and the answer is bad
	exitUsage = 2 // could not run
)

// command is one subcommand in the testable shape: args in, reports to
// stdout, diagnostics to stderr, exit code out.
type command struct {
	name, synopsis string
	run            func(args []string, stdout, stderr io.Writer) int
}

// commands is the dispatch table, in the order the usage text lists it.
var commands = []command{
	{"run", "run a scenario and print its account and audit verdict (-gantt -events, -trace/-metrics exports)", runCmd},
	{"load", "run a scenario and persist its per-run performance report (-out)", loadCmd},
	{"diff", "compare two persisted reports: diff [-threshold f] old.json new.json", diffCmd},
	{"check", "validate exported artifacts (trace, metrics timeline, load report): check file...", checkCmd},
	{"trace", "slowest traces of a trace export as waterfalls (-top)", traceCmd},
	{"metrics", "timeline of a metrics export (-slo, -top)", metricsCmd},
	{"feas", "run the §5 feasibility tests on a scenario's task set (-validate)", feasCmd},
	{"exp", "regenerate the reproduction's tables and figures (-run -quick -seed -list)", expCmd},
	{"list", "list the built-in scenarios", listCmd},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches args[0] to its subcommand.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		for _, c := range commands {
			if c.name == args[0] {
				return c.run(args[1:], stdout, stderr)
			}
		}
		fmt.Fprintf(stderr, "hades: unknown subcommand %q\n", args[0])
	}
	fmt.Fprintln(stderr, "usage: hades <subcommand> [flags] [files]")
	for _, c := range commands {
		fmt.Fprintf(stderr, "  %-8s %s\n", c.name, c.synopsis)
	}
	return exitUsage
}

func listCmd(_ []string, stdout, _ io.Writer) int {
	fmt.Fprintln(stdout, strings.Join(scenario.BuiltinNames(), "\n"))
	return exitOK
}

// newFlags returns a subcommand's flag set, reporting to stderr.
func newFlags(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("hades "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// cannot says why subcommand name could not run; the result is its
// exit code.
func cannot(stderr io.Writer, name string, err error) int {
	fmt.Fprintf(stderr, "hades %s: %v\n", name, err)
	return exitUsage
}

// scenarioFlags declares the one -builtin/-scenario pair on fs — run,
// load and feas share it — and returns the opener to call once fs is
// parsed.
func scenarioFlags(fs *flag.FlagSet) (open func() (scenario.Spec, error)) {
	builtin := fs.String("builtin", "", "built-in scenario name (see hades list)")
	file := fs.String("scenario", "", "scenario JSON file")
	return func() (scenario.Spec, error) { return scenario.Open(*builtin, *file) }
}

// simulate opens the selected scenario, builds its cluster, asks its
// monitor window to keep the kinds keep names (nil keeps the cluster's
// default) and runs it to the horizon.
func simulate(open func() (scenario.Spec, error), keep []monitor.Kind) (scenario.Spec, *cluster.Cluster, cluster.Result, error) {
	spec, err := open()
	if err != nil {
		return spec, nil, cluster.Result{}, err
	}
	clu, err := spec.Build()
	if err != nil {
		return spec, nil, cluster.Result{}, err
	}
	if keep != nil {
		clu.Log().Keep(keep...)
	}
	return spec, clu, clu.Run(spec.Horizon()), nil
}

// readOperand decodes the single file operand of an inspection
// subcommand into doc; what ("trace", "metrics") names both the artifact
// and the run flag that exports it.
func readOperand(fs *flag.FlagSet, what string, doc any) error {
	if fs.NArg() != 1 {
		return fmt.Errorf("need exactly one %s file (exported with hades run -%s)", what, what)
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, doc); err != nil {
		return fmt.Errorf("%s is not a %s export: %v", fs.Arg(0), what, err)
	}
	return nil
}
