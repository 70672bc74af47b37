package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hades/internal/cluster"
	"hades/internal/feasibility"
	"hades/internal/membership"
	"hades/internal/vtime"
)

func TestBuiltinsLoadAndBuild(t *testing.T) {
	for _, name := range BuiltinNames() {
		t.Run(name, func(t *testing.T) {
			spec, err := Builtin(name)
			if err != nil {
				t.Fatal(err)
			}
			sys, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			rep := sys.Run(spec.Horizon())
			if rep.Stats.Activations == 0 {
				t.Fatal("no activations")
			}
		})
	}
}

func TestUnknownBuiltin(t *testing.T) {
	if _, err := Builtin("ghost"); err == nil {
		t.Fatal("unknown builtin accepted")
	}
}

func TestSpuriExampleMeetsDeadlines(t *testing.T) {
	spec, err := Builtin("spuri-example")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	rep := sys.Run(spec.Horizon())
	if rep.Stats.DeadlineMisses != 0 {
		t.Fatalf("spuri-example missed %d deadlines", rep.Stats.DeadlineMisses)
	}
}

func TestOverloadMisses(t *testing.T) {
	spec, err := Builtin("overload")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	rep := sys.Run(spec.Horizon())
	if rep.Stats.DeadlineMisses == 0 {
		t.Fatal("overload scenario missed nothing")
	}
	// And the analysis agrees.
	tasks, err := spec.AnalysisTasks()
	if err != nil {
		t.Fatal(err)
	}
	if feasibility.EDFSpuri(tasks, nil).Feasible {
		t.Fatal("overloaded set declared feasible")
	}
}

// TestSpringRefusesWhatEDFMisses pins what spring-overload is for: the
// planner refuses at admission the job no plan can fit, so nothing it
// admitted misses, while the same task set under EDF misses at run time.
func TestSpringRefusesWhatEDFMisses(t *testing.T) {
	spec, err := Builtin("spring-overload")
	if err != nil {
		t.Fatal(err)
	}
	run := func(spec Spec) cluster.Result {
		sys, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		return sys.Run(spec.Horizon())
	}
	rep := run(spec)
	if rep.Stats.DeadlineMisses != 0 || rep.Stats.Rejections == 0 {
		t.Errorf("Spring: %d misses and %d rejections, want none and some", rep.Stats.DeadlineMisses, rep.Stats.Rejections)
	}
	for _, name := range []string{"a", "c"} {
		if tr, _ := rep.Task(name); tr.Completions < 30 {
			t.Errorf("Spring: %s completed %d instances, want at least 30", name, tr.Completions)
		}
	}
	spec.Scheduler = "EDF"
	if rep := run(spec); rep.Stats.DeadlineMisses == 0 {
		t.Error("EDF: the spring-overload task set missed nothing")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.json")
	data := `{
		"name": "file-test",
		"nodes": 2,
		"seed": 3,
		"costs": "zero",
		"scheduler": "RM",
		"policy": "PCP",
		"horizonMs": 100,
		"tasks": [
			{"name": "a", "node": 0, "cBeforeUs": 500, "deadlineMs": 10, "periodMs": 10, "law": "periodic"},
			{"name": "b", "node": 1, "cBeforeUs": 300, "csUs": 200, "cAfterUs": 100,
			 "resource": "S", "deadlineMs": 20, "periodMs": 20}
		]
	}`
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Nodes != 2 || spec.Scheduler != "RM" || len(spec.Tasks) != 2 {
		t.Fatalf("parsed %+v", spec)
	}
	sys, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	rep := sys.Run(spec.Horizon())
	if rep.Stats.Completions == 0 {
		t.Fatal("file scenario produced nothing")
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load("/nonexistent/file.json"); err == nil {
		t.Fatal("missing file accepted")
	}
	const task = `"tasks": [{"name": "a", "cBeforeUs": 500, "deadlineMs": 10, "periodMs": 10}]`
	const shards = `"nodes": 8, "shards": {"count": 2, "replicasPer": 3, "clients": [%s]}`
	cases := []struct {
		name, data string
		wantErr    string // "" = accepted
	}{
		{"malformed JSON", "{not json", "parsing"},
		{"taskless", `{"name":"x"}`, "no tasks"},
		{"well-formed", `{"name":"x", ` + task + `}`, ""},
		// Strict decoding: a key the format does not define is an error
		// that names it, at any depth — never a knob silently ignored.
		{"misspelt top-level key", `{"name":"x", "horizon": 100, ` + task + `}`, `unknown field "horizon"`},
		{"misspelt nested key", `{"name":"x", "tasks": [{"name": "a", "cBeforeUs": 500, "deadlineMs": 10, "periodsMs": 10}]}`,
			`unknown field "periodsMs"`},
		{"trailing data", `{"name":"x", ` + task + `} {"name":"y"}`, "trailing data"},
		// The open-loop knobs retired from shard clients (load blocks own
		// that discipline) are rejected by name, not dropped.
		{"retired client arrival", `{"name":"x", ` + fmt.Sprintf(shards,
			`{"node": 6, "keys": ["k"], "arrival": 300}`) + `}`, `unknown field "arrival"`},
		{"retired client ramp", `{"name":"x", ` + fmt.Sprintf(shards,
			`{"node": 6, "keys": ["k"], "submitEveryMs": 2, "ramp": [{"atMs": 100, "rate": 400}]}`) + `}`, `unknown field "ramp"`},
		{"retired client hotspotShift", `{"name":"x", ` + fmt.Sprintf(shards,
			`{"node": 6, "keys": ["k"], "submitEveryMs": 2, "zipfSkew": 1.1, "hotspotShift": [{"atMs": 100, "shift": 1}]}`) + `}`,
			`unknown field "hotspotShift"`},
		// So are the keys no run set: placement, explicit shard replica
		// sets, group replica lists, disabled generators, random drops
		// and SLO streaks. "groups" and "disabled" stay legal where the
		// spec still has them (top-level groups, observe.metrics).
		{"retired placement", `{"name":"x", "nodes": 2, "placement": {"a": 1}, ` + task + `}`, `unknown field "placement"`},
		{"retired shards groups", `{"name":"x", "nodes": 8, "shards": {"count": 2, "replicasPer": 3, "groups": [[0, 1, 2], [3, 4, 5]]}}`,
			`unknown field "groups"`},
		{"retired group replicas", `{"name":"x", "nodes": 3, "groups": [{"name": "g", "nodes": [0, 1, 2], "style": "passive", "replicas": [0, 1]}]}`,
			`unknown field "replicas"`},
		{"retired load disabled", `{"name":"x", "nodes": 8, "shards": {"count": 2, "replicasPer": 3,
			"load": [{"name": "g", "nodes": [6], "sessions": 1, "keys": ["k"], "disabled": true}]}}`, `unknown field "disabled"`},
		{"retired fault dropProb", `{"name":"x", "nodes": 2, "faults": [{"kind": "drop-every", "k": 2, "dropProb": 0.5}], ` + task + `}`,
			`unknown field "dropProb"`},
		{"retired slo forIntervals", `{"name":"x", ` + task + `, "observe": {"metrics": {"slo": [` +
			`{"name": "r", "metric": "m", "op": "<=", "threshold": 1, "forIntervals": 2}]}}}`, `unknown field "forIntervals"`},
		{"fixed-interval client", `{"name":"x", ` + fmt.Sprintf(shards,
			`{"node": 6, "keys": ["k"], "submitEveryMs": 2}`) + `}`, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "s.json")
			if err := os.WriteFile(path, []byte(tc.data), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := Load(path)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("well-formed scenario rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %v, want one naming %q", err, tc.wantErr)
			}
		})
	}
}

func TestValidationErrors(t *testing.T) {
	spec := Spec{Name: "v", Tasks: []TaskSpec{{Name: "", PeriodMs: 1, DeadlineMs: 1}}}
	if _, err := spec.withDefaults(); err == nil {
		t.Fatal("unnamed task accepted")
	}
	spec = Spec{Name: "v", Tasks: []TaskSpec{{Name: "x", PeriodMs: 0, DeadlineMs: 1}}}
	if _, err := spec.withDefaults(); err == nil {
		t.Fatal("zero period accepted")
	}
}

func TestBadPolicyAndScheduler(t *testing.T) {
	spec, _ := Builtin("spuri-example")
	spec.Policy = "bogus"
	if _, err := spec.Build(); err == nil {
		t.Fatal("bogus policy accepted")
	}
	spec, _ = Builtin("spuri-example")
	spec.Scheduler = "bogus"
	if _, err := spec.Build(); err == nil {
		t.Fatal("bogus scheduler accepted")
	}
}

func TestAllSchedulersBuild(t *testing.T) {
	for _, schedName := range []string{"EDF", "RM", "DM", "Spring", "best-effort"} {
		spec, _ := Builtin("spuri-example")
		spec.Scheduler = schedName
		if schedName == "best-effort" {
			spec.Policy = "" // best-effort band has no protocol
		}
		sys, err := spec.Build()
		if err != nil {
			t.Fatalf("%s: %v", schedName, err)
		}
		rep := sys.Run(100 * msd(1))
		if rep.Stats.Activations == 0 {
			t.Fatalf("%s: nothing ran", schedName)
		}
	}
}

// TestDistributedRoundTrip: a scenario using every distributed field
// — nodes, explicit links, staged tasks on several nodes, faults —
// survives a JSON round trip and runs end-to-end through the cluster,
// with the injected omission visible in the result.
func TestDistributedRoundTrip(t *testing.T) {
	orig := Spec{
		Name: "rt", Nodes: 3, Seed: 5, Costs: "default",
		Scheduler: "EDF", Policy: "none", HorizonMs: 300,
		Links: []LinkSpec{
			{A: 0, B: 1, DMinUs: 100, DMaxUs: 200},
			{A: 1, B: 2, DMinUs: 150, DMaxUs: 350},
		},
		Faults: []FaultSpec{
			{Kind: "drop-every", K: 10, Port: "heug.prec"},
			{Kind: "crash", Node: 2, AtMs: 200, RecoverMs: 250},
		},
		Tasks: []TaskSpec{
			{Name: "pipe", Law: "periodic", DeadlineMs: 15, PeriodMs: 20,
				Stages: []StageSpec{
					{Name: "src", Node: 0, WCETUs: 300},
					{Name: "mid", Node: 1, WCETUs: 500},
					{Name: "sink", Node: 2, WCETUs: 200},
				}},
		},
	}
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "rt.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec, orig) {
		t.Fatalf("round trip changed the spec:\n got %+v\nwant %+v", spec, orig)
	}
	clu, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	// The sink stage sits on node 2: 1-2 must carry traffic.
	if _, ok := clu.Network().DelayBound(1, 2); !ok {
		t.Fatal("declared link 1-2 missing")
	}
	if _, ok := clu.Network().DelayBound(0, 2); ok {
		t.Fatal("undeclared link 0-2 present")
	}
	res := clu.Run(spec.Horizon())
	if res.Stats.Completions == 0 {
		t.Fatal("distributed scenario produced nothing")
	}
	if res.Net.Delivered == 0 {
		t.Fatal("no remote traffic despite cross-node stages")
	}
	if res.Net.Dropped == 0 {
		t.Fatal("injected omission fault dropped nothing")
	}
}

// TestDistributedBuiltinDetectsOmission: the catalogue's distributed
// scenario runs end-to-end and the dispatcher detects the injected
// omission failures.
func TestDistributedBuiltinDetectsOmission(t *testing.T) {
	spec, err := Builtin("distributed-pipeline")
	if err != nil {
		t.Fatal(err)
	}
	clu, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	res := clu.Run(spec.Horizon())
	if res.Net.Dropped == 0 {
		t.Fatal("no omission injected")
	}
	if res.Stats.NetworkOmissions == 0 {
		t.Fatal("dispatcher did not detect the omission")
	}
	if res.Stats.Completions == 0 {
		t.Fatal("pipeline never completed")
	}
}

// TestDistributedValidation: the new fields are validated.
func TestDistributedValidation(t *testing.T) {
	base := func() Spec {
		return Spec{Name: "v", Nodes: 2, Tasks: []TaskSpec{
			{Name: "t", DeadlineMs: 10, PeriodMs: 10,
				Stages: []StageSpec{{Name: "s", Node: 0, WCETUs: 100}}},
		}}
	}
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"stage on unknown node", func(s *Spec) { s.Tasks[0].Stages[0].Node = 9 }},
		{"stage without wcet", func(s *Spec) { s.Tasks[0].Stages[0].WCETUs = 0 }},
		{"unnamed stage", func(s *Spec) { s.Tasks[0].Stages[0].Name = "" }},
		{"stages mixed with spuri fields", func(s *Spec) { s.Tasks[0].CBeforeUs = 100 }},
		{"self link", func(s *Spec) { s.Links = []LinkSpec{{A: 1, B: 1, DMaxUs: 10}} }},
		{"link to unknown node", func(s *Spec) { s.Links = []LinkSpec{{A: 0, B: 5, DMaxUs: 10}} }},
		{"inverted delay bounds", func(s *Spec) { s.Links = []LinkSpec{{A: 0, B: 1, DMinUs: 50, DMaxUs: 10}} }},
		{"unknown fault kind", func(s *Spec) { s.Faults = []FaultSpec{{Kind: "meteor"}} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := base()
			tc.mutate(&s)
			if _, err := s.withDefaults(); err == nil {
				t.Fatalf("%s accepted", tc.name)
			}
		})
	}
	// The unmutated base must be fine.
	if _, err := base().withDefaults(); err != nil {
		t.Fatalf("valid base rejected: %v", err)
	}
}

// installed returns the views node installed, in order.
func installed(mem *membership.Service, node int) []membership.View {
	var out []membership.View
	for _, in := range mem.Installs {
		if in.Node == node {
			out = append(out, in.View)
		}
	}
	return out
}

// TestMembershipChurnBuiltin is the end-to-end acceptance test of the
// membership subsystem as pure data: the builtin's crashed-then-
// recovered primary is removed by an agreed view, failover happens in
// that view, the node rejoins with a state transfer, and the
// replicated state machine's state survives intact.
func TestMembershipChurnBuiltin(t *testing.T) {
	spec, err := Builtin("membership-churn")
	if err != nil {
		t.Fatal(err)
	}
	clu, reps, err := spec.build()
	if err != nil {
		t.Fatal(err)
	}
	res := clu.Run(spec.Horizon())

	gr, ok := groupOf(res, "sm")
	if !ok {
		t.Fatal("no group result")
	}
	ids := make([]string, 0, len(gr.Views))
	for _, v := range gr.Views {
		ids = append(ids, v.String())
	}
	want := []string{"v1{0,1,2}", "v2{1,2}", "v3{0,1,2}"}
	if !reflect.DeepEqual(ids, want) {
		t.Fatalf("agreed views %v, want %v", ids, want)
	}
	if gr.Failovers != 1 || gr.Joins != 1 {
		t.Fatalf("failovers=%d joins=%d, want 1/1", gr.Failovers, gr.Joins)
	}
	if gr.MaxViewLatency > gr.Bound {
		t.Fatalf("view-change latency %s above bound %s", gr.MaxViewLatency, gr.Bound)
	}
	// All live members installed the same view sequence.
	mem := clu.Groups()[0].Membership()
	for _, n := range []int{1, 2} {
		if got := installed(mem, n); !reflect.DeepEqual(got, gr.Views) {
			t.Fatalf("node %d history %v diverges from agreed %v", n, got, gr.Views)
		}
	}
	// The rejoined ex-primary was restored and is tracking the new
	// primary within one checkpoint interval: state intact.
	rep := reps[0]
	if rep.Primary() != 1 {
		t.Fatalf("primary %d, want 1", rep.Primary())
	}
	rejoined, primary := rep.Machine(0), rep.Machine(1)
	if rejoined.Applied == 0 || primary.Applied == 0 {
		t.Fatalf("machines never ran: rejoined=%d primary=%d", rejoined.Applied, primary.Applied)
	}
	if lag := primary.Applied - rejoined.Applied; lag < 0 || lag > 5 {
		t.Fatalf("rejoined replica lag %d outside [0, checkpoint interval]", lag)
	}
	if res.Stats.DeadlineMisses != 0 {
		t.Fatalf("watchdog missed %d deadlines", res.Stats.DeadlineMisses)
	}
}

// TestMembershipChurnDeterministic: identical scenario + seed ⇒
// identical view history (the determinism acceptance criterion), and
// identical replicated state.
func TestMembershipChurnDeterministic(t *testing.T) {
	type outcome struct {
		installs string
		state    int64
		applied  int64
	}
	run := func() outcome {
		spec, err := Builtin("membership-churn")
		if err != nil {
			t.Fatal(err)
		}
		clu, reps, err := spec.build()
		if err != nil {
			t.Fatal(err)
		}
		clu.Run(spec.Horizon())
		mem := clu.Groups()[0].Membership()
		s := ""
		for _, in := range mem.Installs {
			s += fmt.Sprintf("%d:%s@%s;", in.Node, in.View, in.At)
		}
		sm := reps[0].Machine(1)
		return outcome{installs: s, state: sm.State, applied: sm.Applied}
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same scenario + seed, different outcome:\n%+v\n%+v", a, b)
	}
}

// TestCrashAndRecoverScheduleFromJSON: an end-to-end crash *and
// recover* schedule written as scenario JSON drives the whole cycle
// through cluster.Run — the recovery path at the cluster layer.
func TestCrashAndRecoverScheduleFromJSON(t *testing.T) {
	data := `{
		"name": "churn-json",
		"nodes": 3,
		"seed": 9,
		"scheduler": "EDF",
		"horizonMs": 350,
		"groups": [
			{"name": "g", "nodes": [0, 1, 2], "style": "semi-active",
			 "submitEveryMs": 4, "submitFrom": 2, "checkpointEvery": 5}
		],
		"faults": [
			{"kind": "crash", "node": 0, "atMs": 50, "recoverMs": 180}
		]
	}`
	path := filepath.Join(t.TempDir(), "churn.json")
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	clu, reps, err := spec.build()
	if err != nil {
		t.Fatal(err)
	}
	res := clu.Run(spec.Horizon())

	// Both transitions of the schedule were injected...
	mem := clu.Groups()[0].Membership()
	if clu.Network().NodeDown(0) {
		t.Fatal("node 0 still down after recoverMs")
	}
	// ...and drove a removal view and a rejoin view.
	gr, _ := groupOf(res, "g")
	if len(gr.Views) != 3 {
		t.Fatalf("agreed views %v, want removal + rejoin", gr.Views)
	}
	if !gr.Views[2].Contains(0) {
		t.Fatalf("node 0 never rejoined: %v", gr.Views)
	}
	if gr.Failovers != 1 {
		t.Fatalf("failovers %d, want 1", gr.Failovers)
	}
	// Semi-active: no lost work, and the recovered follower executes
	// requests again after the rejoin (not just the state transfer).
	rep := reps[0]
	if rep.LostWork != 0 {
		t.Fatalf("semi-active lost %d requests", rep.LostWork)
	}
	if len(mem.Transfers) != 1 || mem.Transfers[0].To != 0 {
		t.Fatalf("transfers %+v, want one to node 0", mem.Transfers)
	}
	if rep.Machine(0).Applied == 0 {
		t.Fatal("recovered follower never restored state")
	}
	if lag := rep.Machine(1).Applied - rep.Machine(0).Applied; lag < 0 || lag > 1 {
		t.Fatalf("recovered follower lag %d, want ≤ 1 in-flight request (semi-active mirrors the leader)", lag)
	}
}

// TestGroupValidationErrors: the group fields are validated.
func TestGroupValidationErrors(t *testing.T) {
	base := func() Spec {
		return Spec{Name: "g", Nodes: 3, Groups: []GroupSpec{
			{Name: "sm", Nodes: []int{0, 1}, Style: "passive"},
		}}
	}
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"unnamed group", func(s *Spec) { s.Groups[0].Name = "" }},
		{"duplicate group", func(s *Spec) { s.Groups = append(s.Groups, s.Groups[0]) }},
		{"single-member group", func(s *Spec) { s.Groups[0].Nodes = []int{0} }},
		{"member off platform", func(s *Spec) { s.Groups[0].Nodes = []int{0, 7} }},
		{"duplicate member", func(s *Spec) { s.Groups[0].Nodes = []int{1, 1} }},
		{"unknown style", func(s *Spec) { s.Groups[0].Style = "quantum" }},
		{"submit without style", func(s *Spec) { s.Groups[0].Style = ""; s.Groups[0].SubmitEveryMs = 1 }},
		{"submit from unknown node", func(s *Spec) { s.Groups[0].SubmitFrom = 9 }},
		{"group without network", func(s *Spec) { s.Nodes = 1; s.Groups[0].Nodes = []int{0, 0} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := base()
			tc.mutate(&s)
			if _, err := s.withDefaults(); err == nil {
				t.Fatalf("%s accepted", tc.name)
			}
		})
	}
	if _, err := base().withDefaults(); err != nil {
		t.Fatalf("valid base rejected: %v", err)
	}
}

// TestFaultValidationRejectsSilentNoOps: fault specs that would
// previously panic at Build time or silently never inject are caught
// at validation.
func TestFaultValidationRejectsSilentNoOps(t *testing.T) {
	twoNode := func(faults ...FaultSpec) Spec {
		return Spec{Name: "f", Nodes: 2, Faults: faults, Tasks: []TaskSpec{
			{Name: "t", DeadlineMs: 10, PeriodMs: 10, CBeforeUs: 100},
		}}
	}
	cases := []struct {
		name string
		spec Spec
	}{
		{"faults without a network", Spec{Name: "f", Nodes: 1,
			Faults: []FaultSpec{{Kind: "crash", Node: 0, AtMs: 10}},
			Tasks:  []TaskSpec{{Name: "t", DeadlineMs: 10, PeriodMs: 10, CBeforeUs: 100}}}},
		{"drop-every without k", twoNode(FaultSpec{Kind: "drop-every"})},
		{"crash on unknown node", twoNode(FaultSpec{Kind: "crash", Node: 5, AtMs: 10})},
		{"drop-from on unknown node", twoNode(FaultSpec{Kind: "drop-from", Node: -1})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.spec.withDefaults(); err == nil {
				t.Fatalf("%s accepted", tc.name)
			}
		})
	}
}

// TestMisconfigurationRejected locks in that misconfigured scenarios
// fail loudly instead of being silently ignored: group members must be
// declared nodes, fault kinds must be known, and fault schedules must
// be self-consistent.
func TestMisconfigurationRejected(t *testing.T) {
	base := func() Spec {
		return Spec{
			Name: "v", Nodes: 3, HorizonMs: 100,
			Tasks: []TaskSpec{{Name: "t", Node: 0, CBeforeUs: 100, DeadlineMs: 10, PeriodMs: 10}},
		}
	}
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"group member not a declared node", func(s *Spec) {
			s.Groups = []GroupSpec{{Name: "g", Nodes: []int{0, 5}}}
		}},
		{"group member listed twice", func(s *Spec) {
			s.Groups = []GroupSpec{{Name: "g", Nodes: []int{0, 0}}}
		}},
		{"unknown fault kind", func(s *Spec) {
			s.Faults = []FaultSpec{{Kind: "meteor-strike"}}
		}},
		{"crash on unknown node", func(s *Spec) {
			s.Faults = []FaultSpec{{Kind: "crash", Node: 9, AtMs: 10}}
		}},
		{"crash recovering before the crash", func(s *Spec) {
			s.Faults = []FaultSpec{{Kind: "crash", Node: 0, AtMs: 50, RecoverMs: 40}}
		}},
		{"fault at negative instant", func(s *Spec) {
			s.Faults = []FaultSpec{{Kind: "crash", Node: 0, AtMs: -1}}
		}},
		{"partition with one side", func(s *Spec) {
			s.Faults = []FaultSpec{{Kind: "partition", Partition: [][]int{{0, 1}}, AtMs: 10}}
		}},
		{"partition with empty side", func(s *Spec) {
			s.Faults = []FaultSpec{{Kind: "partition", Partition: [][]int{{0}, {}}, AtMs: 10}}
		}},
		{"partition naming unknown node", func(s *Spec) {
			s.Faults = []FaultSpec{{Kind: "partition", Partition: [][]int{{0}, {7}}, AtMs: 10}}
		}},
		{"partition with node in two sides", func(s *Spec) {
			s.Faults = []FaultSpec{{Kind: "partition", Partition: [][]int{{0, 1}, {1, 2}}, AtMs: 10}}
		}},
		{"partition healing before the split", func(s *Spec) {
			s.Faults = []FaultSpec{{Kind: "partition", Partition: [][]int{{0}, {1}}, AtMs: 50, HealMs: 40}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := base()
			tc.mutate(&s)
			if _, err := s.withDefaults(); err == nil {
				t.Fatalf("%s accepted", tc.name)
			}
		})
	}
}

// TestPartitionSplitBuiltinIsSplitBrainSafe is the acceptance sweep:
// under every seeded run of the partition-split builtin the minority
// side installs no view and promotes no primary while partitioned,
// and after the heal every replica converges to the one majority log,
// the minority re-admitted through a merge view plus state transfer.
func TestPartitionSplitBuiltinIsSplitBrainSafe(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			spec, err := Builtin("partition-split")
			if err != nil {
				t.Fatal(err)
			}
			spec.Seed = seed
			clu, reps, err := spec.build()
			if err != nil {
				t.Fatal(err)
			}
			res := clu.Run(spec.Horizon())
			splitAt := vtime.Time(msd(60))
			healAt := vtime.Time(msd(200))

			mem := clu.Groups()[0].Membership()
			rep := reps[0]
			gr, ok := groupOf(res, "sm")
			if !ok {
				t.Fatal("no group result")
			}
			// The minority (node 0) installed nothing during the split.
			for _, in := range mem.Installs {
				if in.Node == 0 && in.At > splitAt && in.At < healAt {
					t.Fatalf("minority installed %v at %s while partitioned", in.View, in.At)
				}
			}
			// Exactly one promotion, away from the minority, never back.
			if len(rep.Failovers) != 1 {
				t.Fatalf("failovers %+v, want exactly 1", rep.Failovers)
			}
			if fo := rep.Failovers[0]; fo.From != 0 || fo.To == 0 {
				t.Fatalf("failover %+v promotes the minority", fo)
			}
			// Merge view re-admitted the minority with a state transfer.
			final := gr.Views[len(gr.Views)-1]
			if !final.Contains(0) {
				t.Fatalf("final view %v lacks the healed minority", final)
			}
			if len(mem.Merges) != 1 {
				t.Fatalf("merges %+v, want 1", mem.Merges)
			}
			xfers := 0
			for _, tr := range mem.Transfers {
				if tr.To == 0 {
					xfers++
				}
			}
			if xfers == 0 {
				t.Fatal("minority re-admitted without a state transfer")
			}
			// Convergence: the re-admitted replica holds the majority
			// log within one checkpoint interval of the primary.
			primary, rejoined := rep.Machine(rep.Primary()), rep.Machine(0)
			if rejoined.Applied == 0 {
				t.Fatal("re-admitted replica holds no state")
			}
			if lag := primary.Applied - rejoined.Applied; lag < 0 || lag > int64(spec.Groups[0].CheckpointEvery) {
				t.Fatalf("re-admitted replica lag %d outside [0, checkpoint interval]", lag)
			}
			if gr.BlockedTime == 0 || gr.Merges != 1 {
				t.Fatalf("partition stats missing from Result: %+v", gr)
			}
		})
	}
}

// TestShardValidationErrors locks in that malformed sharded-data-plane
// specs are rejected loudly: zero shards, replica sets the platform
// cannot hold, keys routed to undeclared groups, misplaced clients.
func TestShardValidationErrors(t *testing.T) {
	base := func() Spec {
		return Spec{Name: "s", Nodes: 7, Shards: &ShardsSpec{
			Count: 2, ReplicasPer: 3,
			Clients: []ShardClientSpec{{Node: 6, Keys: []string{"a", "b"}, SubmitEveryMs: 2}},
		}}
	}
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   string
	}{
		{"zero shards", func(s *Spec) { s.Shards.Count = 0 }, "zero shards"},
		{"negative shards", func(s *Spec) { s.Shards.Count = -3 }, "zero shards"},
		{"route to undeclared group", func(s *Spec) { s.Shards.Routes = map[string]int{"a": 5} }, "undeclared shard group"},
		{"negative route", func(s *Spec) { s.Shards.Routes = map[string]int{"a": -1} }, "undeclared shard group"},
		{"active style", func(s *Spec) { s.Shards.Style = "active" }, "no primary"},
		{"unknown style", func(s *Spec) { s.Shards.Style = "quantum" }, "unknown shard style"},
		{"too few replicas per shard", func(s *Spec) { s.Shards.ReplicasPer = 1 }, "replicasPer >= 2"},
		{"not enough nodes", func(s *Spec) { s.Shards.ReplicasPer = 4 }, "have 7"},
		{"replica set wider than a group", func(s *Spec) { s.Nodes, s.Shards.ReplicasPer = 200, 64 }, "at most 63"},
		{"client on replica", func(s *Spec) { s.Shards.Clients[0].Node = 2 }, "collides with a shard replica"},
		{"client off platform", func(s *Spec) { s.Shards.Clients[0].Node = 9 }, "unknown node"},
		{"two clients one node", func(s *Spec) {
			s.Shards.Clients = append(s.Shards.Clients, s.Shards.Clients[0])
		}, "two shard clients"},
		{"client without keys", func(s *Spec) { s.Shards.Clients[0].Keys = nil }, "no keys"},
		{"client without interval", func(s *Spec) { s.Shards.Clients[0].SubmitEveryMs = 0 }, "positive submitEveryMs"},
		{"client unknown policy", func(s *Spec) { s.Shards.Clients[0].Policy = "yolo" }, "unknown policy"},
		{"shards without network", func(s *Spec) { s.Nodes = 1 }, "need"},
		{"txn client on replica", func(s *Spec) {
			s.Shards.Txns = []TxnClientSpec{{Node: 1, Accounts: []string{"a", "b"}, SubmitEveryMs: 2}}
		}, "collides with a shard replica"},
		{"txn client off platform", func(s *Spec) {
			s.Shards.Txns = []TxnClientSpec{{Node: 9, Accounts: []string{"a", "b"}, SubmitEveryMs: 2}}
		}, "unknown node"},
		{"txn client colliding with shard client", func(s *Spec) {
			s.Shards.Txns = []TxnClientSpec{{Node: 6, Accounts: []string{"a", "b"}, SubmitEveryMs: 2}}
		}, "two clients"},
		{"txn client one account", func(s *Spec) {
			s.Shards.Clients = nil
			s.Shards.Txns = []TxnClientSpec{{Node: 6, Accounts: []string{"a"}, SubmitEveryMs: 2}}
		}, "at least 2 accounts"},
		{"txn client without interval", func(s *Spec) {
			s.Shards.Clients = nil
			s.Shards.Txns = []TxnClientSpec{{Node: 6, Accounts: []string{"a", "b"}}}
		}, "positive submitEveryMs"},
		{"txn client negative deadline", func(s *Spec) {
			s.Shards.Clients = nil
			s.Shards.Txns = []TxnClientSpec{{Node: 6, Accounts: []string{"a", "b"}, SubmitEveryMs: 2, DeadlineMs: -5}}
		}, "negative timing"},
		{"session without clients or txns", func(s *Spec) {
			s.Shards.Clients = nil
			s.Shards.Session = &SessionSpec{MaxBatch: 4, FlushIntervalMs: 0.5, PipelineDepth: 2}
		}, "nothing to batch"},
		{"session zero maxBatch", func(s *Spec) {
			s.Shards.Session = &SessionSpec{MaxBatch: 0, FlushIntervalMs: 0.5, PipelineDepth: 2}
		}, "maxBatch must be >= 1"},
		{"session negative maxBatch", func(s *Spec) {
			s.Shards.Session = &SessionSpec{MaxBatch: -4, FlushIntervalMs: 0.5, PipelineDepth: 2}
		}, "maxBatch must be >= 1"},
		{"session zero flush interval", func(s *Spec) {
			s.Shards.Session = &SessionSpec{MaxBatch: 4, PipelineDepth: 2}
		}, "flushIntervalMs must be positive"},
		{"session negative flush interval", func(s *Spec) {
			s.Shards.Session = &SessionSpec{MaxBatch: 4, FlushIntervalMs: -1, PipelineDepth: 2}
		}, "flushIntervalMs must be positive"},
		{"session zero pipeline depth", func(s *Spec) {
			s.Shards.Session = &SessionSpec{MaxBatch: 4, FlushIntervalMs: 0.5}
		}, "pipelineDepth must be >= 1"},
		{"session negative pipeline depth", func(s *Spec) {
			s.Shards.Session = &SessionSpec{MaxBatch: 4, FlushIntervalMs: 0.5, PipelineDepth: -2}
		}, "pipelineDepth must be >= 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := base()
			tc.mutate(&s)
			_, err := s.withDefaults()
			if err == nil {
				t.Fatalf("%s accepted", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
			}
		})
	}
	if _, err := base().withDefaults(); err != nil {
		t.Fatalf("valid base rejected: %v", err)
	}
}

// TestShardedKVLinearizablePerKeyAcrossSeeds is the acceptance gate of
// the sharded data plane: under a combined primary crash (shard 0) and
// primary partition (shard 1), every acknowledged request is applied
// exactly once in the owning shard's authoritative history, in per-key
// submission order, across 5 seeds — and the request layer visibly did
// work (failovers on both shards, retries or redirects at the client).
func TestShardedKVLinearizablePerKeyAcrossSeeds(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			spec, err := Builtin("sharded-kv")
			if err != nil {
				t.Fatal(err)
			}
			spec.Seed = seed
			clu, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			res := clu.Run(spec.Horizon())

			set := clu.ShardSets()[0]
			if err := set.Check(); err != nil {
				t.Fatalf("linearizability/exactly-once check: %v", err)
			}
			cl := set.Clients()[0]
			if cl.Stats.Submitted == 0 || cl.Stats.Acked != cl.Stats.Submitted {
				t.Fatalf("acked %d of %d submitted (%+v)", cl.Stats.Acked, cl.Stats.Submitted, cl.Stats)
			}
			if cl.Stats.Retries == 0 && cl.Stats.Redirects == 0 {
				t.Fatal("fault windows produced neither retries nor redirects")
			}
			for _, name := range []string{"shard0", "shard1"} {
				sr, ok := shardOf(res, name)
				if !ok || sr.Requests == 0 {
					t.Fatalf("shard %s served no requests: %+v", name, res.Shards)
				}
				gr, _ := groupOf(res, name)
				if gr.Failovers != 1 {
					t.Fatalf("%s failovers %d, want 1", name, gr.Failovers)
				}
			}
			// The split window really was a split: shard1's isolated
			// primary was blocked and re-admitted through a merge.
			gr1, _ := groupOf(res, "shard1")
			if gr1.BlockedTime == 0 || gr1.Merges != 1 {
				t.Fatalf("shard1 partition stats: %+v", gr1)
			}
		})
	}
}

// TestShardedKVDeterministic: the whole sharded data plane is a pure
// function of spec + seed.
func TestShardedKVDeterministic(t *testing.T) {
	run := func() string {
		spec, err := Builtin("sharded-kv")
		if err != nil {
			t.Fatal(err)
		}
		clu, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		clu.Run(spec.Horizon())
		var b strings.Builder
		for _, a := range clu.ShardSets()[0].Clients()[0].Acks {
			fmt.Fprintf(&b, "%s#%d=%d@%s;", a.Key, a.Seq, a.Result, a.At)
		}
		return b.String()
	}
	h1, h2 := run(), run()
	if h1 == "" {
		t.Fatal("no acks recorded")
	}
	if h1 != h2 {
		t.Fatalf("same spec+seed, different ack histories:\n%s\n%s", h1, h2)
	}
}

// TestBankTransferAtomicAcrossSeeds is the acceptance gate of the
// transaction layer: under a combined primary crash (shard 0) and a
// quorum-segmenting partition (shard 1), across 10 seeds, every
// committed transfer is all-or-nothing across both shards'
// authoritative histories, every aborted transfer leaves no partial
// write, no lock outlives its transaction's deadline — and the fault
// windows visibly exercised the deadline discipline (both clients
// commit AND abort work, locks drain, both shards coordinate and
// prepare) — and, after the drain, the retired records stay retired:
// the late copies the faults make are answered without them.
func TestBankTransferAtomicAcrossSeeds(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			spec, err := Builtin("bank-transfer")
			if err != nil {
				t.Fatal(err)
			}
			spec.Seed = seed
			clu, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			clu.Run(spec.Horizon())
			// Submissions stop at the horizon; drain one deadline span
			// so the final in-flight transactions decide and release.
			res := clu.Run(60 * vtime.Millisecond)

			set := clu.ShardSets()[0]
			if err := set.CheckTxns(); err != nil {
				t.Fatalf("atomicity/isolation check: %v", err)
			}
			deadlineAborts := 0
			for _, cl := range res.TxnClients {
				if cl.Committed == 0 {
					t.Fatalf("client n%d committed nothing: %+v", cl.Node, cl.ClientStats)
				}
				if cl.Aborted == 0 {
					t.Fatalf("client n%d aborted nothing across the fault windows: %+v", cl.Node, cl.ClientStats)
				}
				deadlineAborts += cl.DeadlineAborts
			}
			if deadlineAborts == 0 {
				t.Fatal("no deadline aborts — the fault windows never forced the deadline discipline")
			}
			for _, name := range []string{"shard0", "shard1"} {
				sr, ok := shardOf(res, name)
				if !ok || sr.Txn.Prepares == 0 {
					t.Fatalf("shard %s prepared nothing: %+v", name, sr.Txn)
				}
				if sr.Txn.Begins == 0 {
					t.Fatalf("shard %s coordinated nothing (ring placement degenerate): %+v", name, sr.Txn)
				}
			}
			for _, sr := range res.Shards {
				if sr.Txn.LocksHeld != 0 {
					t.Fatalf("%s still holds %d locks at end of run", sr.Name, sr.Txn.LocksHeld)
				}
			}
			// The plane keeps only what a late copy can still reach: a
			// participant the open transactions' prepares, a
			// coordinator those and, per client, the last one it ran,
			// whose passing floor that client never sent it.
			open := 0
			for _, cl := range res.TxnClients {
				open += cl.Open
			}
			for _, sr := range res.Shards {
				if sr.Txn.Preps > open || sr.Txn.Pending > open+len(res.TxnClients) {
					t.Fatalf("%s holds %d prepares and %d coordinator records after %d begins, with %d transactions open",
						sr.Name, sr.Txn.Preps, sr.Txn.Pending, sr.Txn.Begins, open)
				}
			}
		})
	}
}

// TestShardRoutesPinKeys: pinned routes override the hash ring, and
// the whole keyed workload lands on the pinned shard.
func TestShardRoutesPinKeys(t *testing.T) {
	spec := Spec{Name: "routes", Nodes: 5, Seed: 1, HorizonMs: 100,
		Scheduler: "EDF",
		Shards: &ShardsSpec{
			Count: 2, ReplicasPer: 2,
			Routes: map[string]int{"a": 1, "b": 1},
			Clients: []ShardClientSpec{
				{Node: 4, Keys: []string{"a", "b"}, SubmitEveryMs: 5},
			},
		}}
	s, err := spec.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	clu, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	res := clu.Run(s.Horizon())
	s0, _ := shardOf(res, "shard0")
	s1, _ := shardOf(res, "shard1")
	if s0.Requests != 0 || s1.Requests == 0 {
		t.Fatalf("pinned routes ignored: shard0=%+v shard1=%+v", s0, s1)
	}
	if err := clu.ShardSets()[0].Check(); err != nil {
		t.Fatal(err)
	}
}

// TestMembershipBoundFeedsAdmission: the provable view-change bound of
// a scenario's membership group wires into the admission test as a
// blackout term — a task set with less slack than one failover window
// is rejected, the same set with enough slack admitted.
func TestMembershipBoundFeedsAdmission(t *testing.T) {
	spec, err := Builtin("membership-churn")
	if err != nil {
		t.Fatal(err)
	}
	clu, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	bound := clu.Groups()[0].Membership().Bound()
	if bound <= 0 {
		t.Fatalf("view-change bound %s", bound)
	}
	tight := []feasibility.Task{{Name: "ctl", C: msd(2), D: bound + msd(3), T: bound + msd(3), NumEU: 1}}
	ov := &feasibility.Overheads{ViewChangeBlackout: bound}
	if v := feasibility.EDFSpuri(tight, ov); !v.Feasible {
		t.Fatalf("slack > blackout rejected: %+v", v)
	}
	noSlack := []feasibility.Task{{Name: "ctl", C: msd(2), D: bound, T: bound, NumEU: 1}}
	if v := feasibility.EDFSpuri(noSlack, ov); v.Feasible {
		t.Fatal("task set without room for a failover window admitted")
	}
}

// TestOpen: the CLIs' shared scenario selection takes exactly one
// source and passes the chosen loader's error through.
func TestOpen(t *testing.T) {
	misspelt := filepath.Join(t.TempDir(), "misspelt.json")
	if err := os.WriteFile(misspelt, []byte(`{"name":"x","nodes":1,"horizonMillis":5}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, builtin, path, wantErr string
	}{
		{name: "builtin", builtin: "spuri-example"},
		{name: "both", builtin: "spuri-example", path: misspelt, wantErr: "exactly one"},
		{name: "neither", wantErr: "exactly one"},
		{name: "unknown builtin", builtin: "no-such", wantErr: `unknown builtin "no-such"`},
		{name: "strict decode", path: misspelt, wantErr: `unknown field "horizonMillis"`},
	} {
		spec, err := Open(tc.builtin, tc.path)
		switch {
		case tc.wantErr == "" && (err != nil || spec.Name != tc.builtin):
			t.Errorf("%s: got (%q, %v)", tc.name, spec.Name, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestValidationNamesFirstKeyInOrder: a spec with two bad map entries
// is refused naming the lexically first key every time, not whichever
// one map iteration happens to reach first.
func TestValidationNamesFirstKeyInOrder(t *testing.T) {
	routes := Spec{Name: "r", Nodes: 7, Shards: &ShardsSpec{
		Count: 2, ReplicasPer: 3,
		Clients: []ShardClientSpec{{Node: 6, Keys: []string{"a", "b"}, SubmitEveryMs: 2}},
		Routes:  map[string]int{"b": 0, "zeta": 9, "alpha": 5, "c": 1},
	}}
	data, err := json.Marshal(routes)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "r.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := Load(path); err == nil || !strings.Contains(err.Error(), `key "alpha" routed`) {
			t.Fatalf("load %d: %v, want an error naming key \"alpha\"", i, err)
		}
	}
}
