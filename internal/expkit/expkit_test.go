package expkit

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"hades/internal/dispatcher"
	"hades/internal/feasibility"
)

// quickOpts runs every experiment at reduced scale; the assertions below
// are about *shape* — who wins, what is bounded, what never happens —
// which must hold at any scale.
var quickOpts = Options{Quick: true, Seed: 1}

func mustRun(t *testing.T, id string) Table {
	t.Helper()
	tbl, err := Run(id, quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) == 0 {
		t.Fatalf("%s produced no rows", id)
	}
	return tbl
}

func cell(t *testing.T, tbl Table, row int, col string) string {
	t.Helper()
	for i, c := range tbl.Columns {
		if c == col {
			return tbl.Rows[row][i]
		}
	}
	t.Fatalf("table %s has no column %q", tbl.ID, col)
	return ""
}

func atoi(t *testing.T, s string) int {
	t.Helper()
	n, err := strconv.Atoi(s)
	if err != nil {
		t.Fatalf("not an int: %q", s)
	}
	return n
}

func pctVal(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("not a percentage: %q", s)
	}
	return v
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"F1", "F2", "F3", "S5", "T1", "T2", "X1", "X2", "X3", "X4", "X5", "X6", "X7"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("experiments registered: %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("experiments registered: %v, want %v", got, want)
		}
	}
	if _, err := Run("nope", quickOpts); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestF1GuaranteedAppsMeetDeadlines(t *testing.T) {
	tbl := mustRun(t, "F1")
	for i := range tbl.Rows {
		name := cell(t, tbl, i, "task")
		misses := atoi(t, cell(t, tbl, i, "misses"))
		completions := atoi(t, cell(t, tbl, i, "completions"))
		if completions == 0 {
			t.Errorf("%s never completed", name)
		}
		if !strings.HasPrefix(name, "be.") && misses != 0 {
			t.Errorf("guaranteed task %s missed %d deadlines", name, misses)
		}
	}
}

func TestF2TraceShape(t *testing.T) {
	rep, lines := Figure2Trace(1)
	if rep.Stats.DeadlineMisses != 0 {
		t.Fatalf("misses %d", rep.Stats.DeadlineMisses)
	}
	trace := strings.Join(lines, "\n")
	order := []string{
		"Atv (t1#1.eu)", "Start              t1#1.eu",
		"Atv (t2#1.eu)", "SetPrio            t2#1.eu",
		"Start              t2#1.eu", "Trm                t2#1.eu",
		"Resume             t1#1.eu", "Trm                t1#1.eu",
	}
	rest := trace
	for _, p := range order {
		i := strings.Index(rest, p)
		if i < 0 {
			t.Fatalf("Figure 2 trace missing %q in order.\n%s", p, trace)
		}
		rest = rest[i+len(p):]
	}
}

func TestF3TranslationShape(t *testing.T) {
	tbl := mustRun(t, "F3")
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows %d, want 3 EUs", len(tbl.Rows))
	}
	if !strings.Contains(cell(t, tbl, 1, "resources"), "S") {
		t.Fatal("eu2 must hold S")
	}
	if cell(t, tbl, 0, "latest") == "-" {
		t.Fatal("eu1 must carry latest=B'_i")
	}
}

func TestT1MeasuredEqualsConfigured(t *testing.T) {
	tbl := mustRun(t, "T1")
	for i := range tbl.Rows {
		cfg := cell(t, tbl, i, "configured")
		got := cell(t, tbl, i, "measured")
		if cfg != got {
			t.Errorf("%s: measured %s != configured %s", cell(t, tbl, i, "constant"), got, cfg)
		}
	}
}

func TestT2KernelActivities(t *testing.T) {
	tbl := mustRun(t, "T2")
	if n := atoi(t, cell(t, tbl, 0, "count")); n < 100 {
		t.Errorf("clock ticks %d, want >= 100 over 200ms at 1ms period... (row order)", n)
	}
	if n := atoi(t, cell(t, tbl, 1, "count")); n == 0 {
		t.Error("no ATM interrupts under message load")
	}
	if g := cell(t, tbl, 0, "pseudo-period (min gap)"); g != "1ms" {
		t.Errorf("clock pseudo-period %s, want 1ms", g)
	}
}

func TestS5SafetyClaim(t *testing.T) {
	tbl := mustRun(t, "S5")
	sawNaiveOnlyMiss := false
	for i := range tbl.Rows {
		if atoi(t, cell(t, tbl, i, "miss(integrated)")) != 0 {
			t.Fatalf("U=%s: integrated-admitted set missed a deadline — safety claim broken",
				cell(t, tbl, i, "U"))
		}
		an := pctVal(t, cell(t, tbl, i, "admit naive"))
		ai := pctVal(t, cell(t, tbl, i, "admit integrated"))
		if ai > an {
			t.Fatalf("U=%s: integrated admitted more than naive", cell(t, tbl, i, "U"))
		}
		if atoi(t, cell(t, tbl, i, "miss(naive-only)")) > 0 {
			sawNaiveOnlyMiss = true
		}
	}
	if !sawNaiveOnlyMiss {
		t.Fatal("no naive-only set missed: the experiment shows no separation")
	}
	// A zero in miss(integrated) must come from a run that activated
	// its set, not from a simulation that never started it.
	tasks := feasibility.Generate(rand.New(rand.NewSource(7)), feasibility.DefaultGenConfig(5, 0.6))
	if rep := SimulateEDFSRP(tasks, dispatcher.DefaultCostBook(), 250*ms, 1); rep.Stats.Activations == 0 {
		t.Fatal("SimulateEDFSRP activated nothing")
	}
}

func TestX1EDFDominatesRM(t *testing.T) {
	tbl := mustRun(t, "X1")
	for i := range tbl.Rows {
		bound := pctVal(t, cell(t, tbl, i, "RM (LL bound)"))
		rta := pctVal(t, cell(t, tbl, i, "RM (exact RTA)"))
		edf := pctVal(t, cell(t, tbl, i, "EDF (demand)"))
		if edf != 100 {
			t.Errorf("U=%s: EDF %v%% < 100%% on U<=1 implicit-deadline sets", cell(t, tbl, i, "U"), edf)
		}
		if rta < bound {
			t.Errorf("U=%s: exact RTA below the sufficient bound", cell(t, tbl, i, "U"))
		}
		if edf < rta {
			t.Errorf("U=%s: EDF below RM", cell(t, tbl, i, "U"))
		}
	}
	// RM must actually drop somewhere (the motivation).
	last := tbl.Rows[len(tbl.Rows)-1]
	if pctVal(t, last[2]) >= 99 {
		t.Error("RM never dropped below 99%: no separation shown")
	}
}

func TestX2ProtocolsBoundInversion(t *testing.T) {
	tbl := mustRun(t, "X2")
	byPolicy := map[string][]string{}
	for i := range tbl.Rows {
		byPolicy[cell(t, tbl, i, "policy")] = tbl.Rows[i]
	}
	if byPolicy["none"][4] != "false" {
		t.Error("no-protocol run unexpectedly bounded")
	}
	for _, p := range []string{"PCP", "SRP"} {
		if byPolicy[p][4] != "true" {
			t.Errorf("%s failed to bound inversion", p)
		}
	}
	if atoi(t, byPolicy["SRP"][3]) != 0 {
		t.Error("SRP changed priorities")
	}
	if atoi(t, byPolicy["PCP"][3]) == 0 {
		t.Error("PCP never inherited")
	}
}

func TestX3PrecisionBoundHolds(t *testing.T) {
	tbl := mustRun(t, "X3")
	for i := range tbl.Rows {
		if cell(t, tbl, i, "holds") != "true" {
			t.Errorf("row %d: precision bound violated", i)
		}
	}
}

func TestX4BroadcastProperties(t *testing.T) {
	tbl := mustRun(t, "X4")
	var prev float64 = -1
	for i := range tbl.Rows {
		if cell(t, tbl, i, "agreement") != "true" || cell(t, tbl, i, "timeliness") != "true" {
			t.Errorf("f=%s: property violated", cell(t, tbl, i, "f"))
		}
		_ = prev
	}
}

func TestX5ReplicationShape(t *testing.T) {
	tbl := mustRun(t, "X5")
	byStyle := map[string][]string{}
	for i := range tbl.Rows {
		byStyle[cell(t, tbl, i, "style")] = tbl.Rows[i]
	}
	if byStyle["passive"][1] == "-" {
		t.Error("passive replication never failed over after the primary crash")
	}
	if byStyle["passive"][2] == "0" {
		t.Error("passive failover lost no work despite mid-interval crash")
	}
	if byStyle["semi-active"][2] != "0" {
		t.Error("semi-active lost work")
	}
	if !strings.Contains(byStyle["active"][1], "masking") {
		t.Error("active replication failed over")
	}
}

func TestX6CrudeRejectsFeasibleSets(t *testing.T) {
	tbl := mustRun(t, "X6")
	anyLost := false
	for i := range tbl.Rows {
		p := pctVal(t, cell(t, tbl, i, "precise"))
		c := pctVal(t, cell(t, tbl, i, "crude x10"))
		if c > p {
			t.Errorf("U=%s: crude admitted more than precise", cell(t, tbl, i, "U"))
		}
		if pctVal(t, cell(t, tbl, i, "lost vs precise (x10)")) > 0 {
			anyLost = true
		}
	}
	if !anyLost {
		t.Error("crude estimates never rejected a feasible set: no pessimism shown")
	}
}

func TestX7ConsensusRounds(t *testing.T) {
	tbl := mustRun(t, "X7")
	for i := range tbl.Rows {
		f := atoi(t, cell(t, tbl, i, "f"))
		rounds := atoi(t, cell(t, tbl, i, "rounds"))
		if rounds != f+1 {
			t.Errorf("f=%d: rounds %d, want f+1", f, rounds)
		}
		if cell(t, tbl, i, "agreement") != "true" {
			t.Errorf("f=%d: disagreement", f)
		}
		if d := cell(t, tbl, i, "decided"); d != "4/4" {
			t.Errorf("f=%d: decided %s, want every survivor (4/4)", f, d)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tbl := Table{
		ID: "T", Title: "demo",
		Columns: []string{"a", "longcolumn"},
		Rows:    [][]string{{"x", "y"}},
		Notes:   []string{"n1"},
	}
	s := tbl.String()
	for _, want := range []string{"== T: demo ==", "longcolumn", "note: n1"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q:\n%s", want, s)
		}
	}
}

// TestRunAll also holds determinism: two runs of the registry at one
// seed render byte-identical tables.
func TestRunAll(t *testing.T) {
	first, second := RunAll(quickOpts), RunAll(quickOpts)
	if len(first) != len(IDs()) {
		t.Fatalf("RunAll returned %d tables", len(first))
	}
	for i := range first {
		if a, b := first[i].String(), second[i].String(); a != b {
			t.Errorf("%s differs between two runs at seed %d:\n%s\n---\n%s", first[i].ID, quickOpts.Seed, a, b)
		}
	}
}
