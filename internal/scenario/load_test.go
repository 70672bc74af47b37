package scenario

import (
	"bytes"
	"strings"
	"testing"
)

// loadBase clones the hot-shard builtin deeply enough to mutate its
// shards block (Builtin hands out a shallow copy of the catalogue
// entry).
func loadBase(t *testing.T) Spec {
	t.Helper()
	spec, err := Builtin("hot-shard")
	if err != nil {
		t.Fatal(err)
	}
	sh := *spec.Shards
	sh.Clients = append([]ShardClientSpec(nil), sh.Clients...)
	sh.Load = append([]LoadSpec(nil), sh.Load...)
	spec.Shards = &sh
	return spec
}

// TestLoadSpecValidation runs the one LoadSpec validator over its two
// placements — the shards and pubsub blocks: the shared rules
// hold in every block, each block's own rules (workloads, nodes, keys)
// reject loudly, and well-formed generators are accepted.
func TestLoadSpecValidation(t *testing.T) {
	keys := []string{"alpha", "bravo", "charlie"}
	closed := func(name string, nodes ...int) LoadSpec {
		return LoadSpec{Name: name, Nodes: nodes, Sessions: 4, ThinkMs: 5, Keys: keys}
	}
	// A placement is one block a generator can be declared in: the spec
	// it is tried on, a generator the block accepts, and the block's
	// load list.
	type placement struct {
		base  func(*testing.T) Spec
		valid LoadSpec
		loads func(*Spec) *[]LoadSpec
	}
	placements := map[string]placement{
		"shards": {loadBase, closed("g", 7),
			func(s *Spec) *[]LoadSpec { return &s.Shards.Load }},
		"pubsub": {pubsubBase, LoadSpec{Name: "g", Nodes: []int{6}, Sessions: 2, ThinkMs: 5, Keys: []string{"sensors"}},
			func(s *Spec) *[]LoadSpec { return &s.PubSub.Load }},
	}
	cases := []struct {
		// in names the placement; "" runs the case in both, where
		// edit mutates a copy of the placement's valid generator.
		in      string
		name    string
		edit    func(*LoadSpec)
		load    []LoadSpec  // the block's load list (placement-specific cases)
		also    func(*Spec) // further spec mutation
		wantErr string      // "" = accepted
	}{
		{name: "valid", edit: func(*LoadSpec) {}},
		{name: "unnamed", edit: func(ls *LoadSpec) { ls.Name = "" }, wantErr: "load 0 unnamed"},
		{name: "unknown mode", edit: func(ls *LoadSpec) { ls.Mode = "half-open" }, wantErr: "unknown mode"},
		{name: "unknown workload", edit: func(ls *LoadSpec) { ls.Workload = "scan" }, wantErr: "unknown workload"},
		{name: "negative window", edit: func(ls *LoadSpec) { ls.EndMs = -1 }, wantErr: "negative window end"},
		{name: "closed with arrival", edit: func(ls *LoadSpec) { ls.Arrival = 100 }, wantErr: "rate is open-loop only"},
		{name: "open without rate", edit: func(ls *LoadSpec) { ls.Mode, ls.Sessions = "open", 0 },
			wantErr: "positive rate or a ramp"},

		{in: "shards", name: "duplicate names", load: []LoadSpec{closed("g", 7), closed("g", 6)}, wantErr: "duplicate load"},
		{in: "shards", name: "no nodes", load: []LoadSpec{{Name: "g", Sessions: 1, Keys: keys}}, wantErr: "names no client nodes"},
		{in: "shards", name: "unknown node", load: []LoadSpec{closed("g", 99)}, wantErr: "unknown node"},
		{in: "shards", name: "replica node", load: []LoadSpec{closed("g", 0)}, wantErr: "collides with a shard replica"},
		{in: "shards", name: "node twice", load: []LoadSpec{closed("g", 7, 7)}, wantErr: "lists node 7 twice"},
		{in: "shards", name: "pubsub workload", load: []LoadSpec{{Name: "g", Workload: "pubsub", Nodes: []int{7}, Sessions: 1, Keys: keys}},
			wantErr: "pubsub loads live in the pubsub block"},
		{in: "shards", name: "open with sessions", load: []LoadSpec{{Name: "g", Mode: "open", Nodes: []int{7}, Arrival: 100,
			Sessions: 4, Keys: keys}}, wantErr: "sessions are closed-loop only"},
		{in: "shards", name: "ramp not ascending", load: []LoadSpec{{Name: "g", Mode: "open", Nodes: []int{7}, Keys: keys,
			Ramp: []RampStepSpec{{AtMs: 50, Rate: 10}, {AtMs: 50, Rate: 20}}}}, wantErr: "strictly ascend"},
		{in: "shards", name: "shift without skew", load: []LoadSpec{{Name: "g", Mode: "open", Nodes: []int{7}, Arrival: 100,
			Keys: keys, HotspotShift: []HotspotShiftSpec{{AtMs: 50, Shift: 1}}}}, wantErr: "without zipfSkew"},
		{in: "shards", name: "txn one key", load: []LoadSpec{{Name: "g", Workload: "txn", Nodes: []int{7}, Sessions: 1,
			Keys: []string{"alpha"}}}, wantErr: "at least two keys"},
		{in: "shards", name: "no keys", load: []LoadSpec{{Name: "g", Nodes: []int{7}, Sessions: 1}}, wantErr: "at least one key"},
		{in: "shards", name: "valid open with schedules", load: []LoadSpec{{Name: "g", Mode: "open", Nodes: []int{7},
			Arrival: 200, ZipfSkew: 1.1, Keys: keys,
			Ramp:         []RampStepSpec{{AtMs: 100, Rate: 800}},
			HotspotShift: []HotspotShiftSpec{{AtMs: 150, Shift: 1}}}}},

		{in: "pubsub", name: "undeclared topic", edit: func(ls *LoadSpec) { ls.Keys = []string{"ghost"} },
			wantErr: "undeclared topic \"ghost\""},
		{in: "pubsub", name: "no topics", edit: func(ls *LoadSpec) { ls.Keys = nil }, wantErr: "names no topics in keys"},
		{in: "pubsub", name: "kv workload", edit: func(ls *LoadSpec) { ls.Workload = "kv" }, wantErr: "always publishes"},
		{in: "pubsub", name: "no nodes", edit: func(ls *LoadSpec) { ls.Nodes = nil }, wantErr: "names no publisher nodes"},
		{in: "pubsub", name: "replica node is legal", edit: func(ls *LoadSpec) { ls.Nodes = []int{0} }},
		{in: "pubsub", name: "name collides across blocks", edit: func(ls *LoadSpec) { ls.Name = "storm" },
			also: func(s *Spec) {
				s.Shards.Load = []LoadSpec{{Name: "storm", Nodes: []int{6}, Sessions: 1, Keys: []string{"alpha"}}}
			}, wantErr: "duplicate load \"storm\""},
	}
	for _, tc := range cases {
		for in, pl := range placements {
			if tc.in != "" && tc.in != in {
				continue
			}
			t.Run(in+"/"+tc.name, func(t *testing.T) {
				spec := pl.base(t)
				block := tc.load
				if tc.edit != nil {
					ls := pl.valid
					tc.edit(&ls)
					block = []LoadSpec{ls}
				}
				*pl.loads(&spec) = block
				if tc.also != nil {
					tc.also(&spec)
				}
				_, err := spec.withDefaults()
				if tc.wantErr == "" {
					if err != nil {
						t.Fatalf("valid load block rejected: %v", err)
					}
					return
				}
				if err == nil {
					t.Fatalf("invalid load block accepted: %+v", block)
				}
				if !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %q missing %q", err, tc.wantErr)
				}
			})
		}
	}
}

// TestLoadRampRuns: the load-ramp builtin drives real traffic through
// both generators, the ramp's arrivals dominate, and the run's
// account reaches the Result.
func TestLoadRampRuns(t *testing.T) {
	spec, err := Builtin("load-ramp")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(spec.Horizon())
	res := sys.ResultNow()
	if len(res.Loads) != 2 {
		t.Fatalf("got %d load accounts, want 2", len(res.Loads))
	}
	for _, l := range res.Loads {
		if l.Offered == 0 {
			t.Fatalf("load %q offered nothing", l.Name)
		}
		if l.Acked == 0 {
			t.Fatalf("load %q acked nothing", l.Name)
		}
		if l.Acked > l.Offered {
			t.Fatalf("load %q acked %d > offered %d", l.Name, l.Acked, l.Offered)
		}
		if l.Capped {
			t.Fatalf("load %q hit its op cap", l.Name)
		}
	}
}

// TestLoadReportDeterministic: the same builtin and seed distill to a
// byte-identical report document — the property committed baselines
// rest on.
func TestLoadReportDeterministic(t *testing.T) {
	build := func() []byte {
		t.Helper()
		spec, err := Builtin("load-ramp")
		if err != nil {
			t.Fatal(err)
		}
		sys, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		sys.Run(spec.Horizon())
		doc := sys.ReportNow(spec.Name)
		var buf bytes.Buffer
		if err := doc.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := build(), build()
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different report documents")
	}
	if len(a) == 0 || !bytes.Contains(a, []byte(`"throughput"`)) {
		t.Fatalf("report document malformed:\n%s", a)
	}
	// The per-interval series must be present: the metrics plane
	// scrapes the generators' offered/acked counters by default.
	if !bytes.Contains(a, []byte(`"series"`)) {
		t.Fatalf("report missing the throughput series:\n%s", a)
	}
}
