package main

import (
	"bytes"
	"strings"
	"testing"

	"hades/internal/expkit"
)

// TestFeas table-tests hades feas: both EDF verdicts on the §5 running
// example, the membership-aware blackout line on a scenario with a
// group, and the shared scenario-selection errors.
func TestFeas(t *testing.T) {
	runCases(t, []cliCase{
		{"naive verdict", []string{"feas", "-builtin", "spuri-example"}, 0, "EDF+SRP (naive, no costs):         feasible=true", ""},
		{"integrated verdict", []string{"feas", "-builtin", "spuri-example"}, 0, "EDF+SRP (§5.3 cost-integrated):    feasible=true", ""},
		{"validated by simulation", []string{"feas", "-builtin", "spuri-example", "-validate"}, 0, "misses: 0 over", ""},
		{"view-change blackout", []string{"feas", "-builtin", "membership-churn"}, 0, "EDF+SRP (+view-change blackout ", ""},
		{"unknown builtin", []string{"feas", "-builtin", "no-such"}, 2, "", `unknown builtin "no-such"`},
		{"no scenario", []string{"feas"}, 2, "", "exactly one"},
		{"bad flag", []string{"feas", "-simulate"}, 2, "", "flag provided but not defined"},
	})
}

// TestExp: -list is the experiment registry, and an unknown ID cannot run.
func TestExp(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"exp", "-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exp -list exited %d: %s", code, stderr.String())
	}
	if got, want := stdout.String(), strings.Join(expkit.IDs(), "\n")+"\n"; got != want {
		t.Errorf("exp -list printed\n%s\nwant expkit.IDs():\n%s", got, want)
	}
	runCases(t, []cliCase{
		{"unknown experiment", []string{"exp", "-run", "nope"}, 2, "", "nope"},
		{"one experiment, quick", []string{"exp", "-run", "X5", "-quick"}, 0, "== X5:", ""},
	})
}
