package membership

import (
	"fmt"
	"reflect"
	"testing"

	"hades/internal/fault"
	"hades/internal/monitor"
	"hades/internal/netsim"
	"hades/internal/simkern"
	"hades/internal/vtime"
)

const (
	us = vtime.Microsecond
	ms = vtime.Millisecond
)

type rigT struct {
	eng *simkern.Engine
	net *netsim.Network
	svc *Service
}

func rig(t *testing.T, n int, seed int64) rigT {
	t.Helper()
	eng := simkern.NewEngine(monitor.NewLog(0), seed)
	nodes := make([]int, n)
	for i := 0; i < n; i++ {
		eng.AddProcessor("n", 0)
		nodes[i] = i
	}
	net := netsim.New(eng, netsim.Config{WAtm: 5 * us, WProto: 5 * us, PrioNet: simkern.PrioMax - 2})
	net.ConnectAll(nodes, 50*us, 150*us)
	svc, err := New(eng, net, Config{Name: "g", Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	return rigT{eng: eng, net: net, svc: svc}
}

// history returns the views node installed, in order.
func history(s *Service, node int) []View {
	var out []View
	for _, in := range s.Installs {
		if in.Node == node {
			out = append(out, in.View)
		}
	}
	return out
}

func viewIDs(vs []View) []uint64 {
	out := make([]uint64, len(vs))
	for i, v := range vs {
		out[i] = v.ID
	}
	return out
}

// TestInitialViewInstalledEverywhere: Start installs view 1 with the
// full universe at every node.
func TestInitialViewInstalledEverywhere(t *testing.T) {
	r := rig(t, 3, 1)
	r.svc.Start()
	for n := 0; n < 3; n++ {
		v := r.svc.CurrentView(n)
		if v.ID != 1 || !reflect.DeepEqual(v.Members, []int{0, 1, 2}) {
			t.Fatalf("node %d initial view %v", n, v)
		}
	}
}

// TestCrashInstallsAgreedViewWithinBound is the core acceptance test:
// a member crash leads every live member to install the *same* new
// view, at the *same* instant, within Service.Bound() of the crash.
func TestCrashInstallsAgreedViewWithinBound(t *testing.T) {
	r := rig(t, 4, 1)
	r.svc.Start()
	crashAt := vtime.Time(40 * ms)
	fault.CrashAt(r.eng, r.net, 2, crashAt, 0)
	r.eng.Run(vtime.Time(200 * ms))

	want := []View{
		{ID: 1, Members: []int{0, 1, 2, 3}},
		{ID: 2, Members: []int{0, 1, 3}},
	}
	var installAt vtime.Time
	for _, n := range []int{0, 1, 3} {
		got := history(r.svc, n)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("node %d view history %v, want %v", n, got, want)
		}
	}
	// Same instant everywhere (view synchrony), latency within bound.
	for _, in := range r.svc.Installs {
		if in.View.ID != 2 {
			continue
		}
		if installAt == 0 {
			installAt = in.At
		}
		if in.At != installAt {
			t.Fatalf("install instants differ: %s vs %s", in.At, installAt)
		}
		if lat := in.At.Sub(crashAt); lat > r.svc.Bound() {
			t.Fatalf("crash-to-install latency %s above bound %s", lat, r.svc.Bound())
		}
		if in.Latency > r.svc.agreementBound() {
			t.Fatalf("suspicion-to-install latency %s above agreement bound %s", in.Latency, r.svc.agreementBound())
		}
	}
	if installAt == 0 {
		t.Fatal("no installs of view 2 recorded")
	}
	// The crashed node must not have installed view 2.
	if got := viewIDs(history(r.svc, 2)); !reflect.DeepEqual(got, []uint64{1}) {
		t.Fatalf("crashed node history %v", got)
	}
}

// TestRecoveredNodeRejoins: a crashed node that recovers is brought
// back by a join view change, and its history is a gap-free record of
// what it actually installed.
func TestRecoveredNodeRejoins(t *testing.T) {
	r := rig(t, 3, 1)
	r.svc.Start()
	fault.CrashAt(r.eng, r.net, 0, vtime.Time(40*ms), vtime.Time(120*ms))
	r.eng.Run(vtime.Time(300 * ms))

	want := []View{
		{ID: 1, Members: []int{0, 1, 2}},
		{ID: 2, Members: []int{1, 2}},
		{ID: 3, Members: []int{0, 1, 2}},
	}
	for _, n := range []int{1, 2} {
		if got := history(r.svc, n); !reflect.DeepEqual(got, want) {
			t.Fatalf("node %d history %v, want %v", n, got, want)
		}
	}
	// The joiner installed the initial view and the join view only.
	if got := history(r.svc, 0); !reflect.DeepEqual(got, []View{want[0], want[2]}) {
		t.Fatalf("joiner history %v", got)
	}
	if got := r.svc.AgreedViews(); !reflect.DeepEqual(got, want) {
		t.Fatalf("agreed sequence %v, want %v", got, want)
	}
}

// TestJoinRunsStateTransfer: registered state providers ship a
// snapshot from a live donor to the joiner after the join view.
func TestJoinRunsStateTransfer(t *testing.T) {
	r := rig(t, 3, 1)
	restored := map[int]any{}
	r.svc.RegisterState("counter", func(donor, joiner int) any {
		return fmt.Sprintf("state-of-n%d", donor)
	}, func(node int, data any) {
		restored[node] = data
	})
	r.svc.Start()
	fault.CrashAt(r.eng, r.net, 2, vtime.Time(40*ms), vtime.Time(120*ms))
	r.eng.Run(vtime.Time(300 * ms))

	if len(r.svc.Transfers) != 1 {
		t.Fatalf("transfers %+v, want exactly 1", r.svc.Transfers)
	}
	tr := r.svc.Transfers[0]
	if tr.To != 2 || tr.Key != "counter" {
		t.Fatalf("transfer %+v", tr)
	}
	if restored[2] != fmt.Sprintf("state-of-n%d", tr.From) {
		t.Fatalf("restored %v", restored)
	}
	if r.eng.Log().CountKind(monitor.KindStateTransfer) != 1 {
		t.Fatal("state transfer not recorded in the monitor log")
	}
}

// TestSequentialCrashesSerialise: two crashes produce two agreed view
// changes in a total order shared by the survivors.
func TestSequentialCrashesSerialise(t *testing.T) {
	r := rig(t, 4, 1)
	r.svc.Start()
	fault.CrashAt(r.eng, r.net, 3, vtime.Time(40*ms), 0)
	fault.CrashAt(r.eng, r.net, 2, vtime.Time(41*ms), 0)
	r.eng.Run(vtime.Time(300 * ms))

	agreed := r.svc.AgreedViews()
	last := agreed[len(agreed)-1]
	if !reflect.DeepEqual(last.Members, []int{0, 1}) {
		t.Fatalf("final view %v, want members [0 1] (agreed %v)", last, agreed)
	}
	for _, n := range []int{0, 1} {
		h := history(r.svc, n)
		if !reflect.DeepEqual(h, agreed) {
			t.Fatalf("node %d history %v diverges from agreed %v", n, h, agreed)
		}
	}
}

// TestDeterministicViewHistory: identical description + seed ⇒
// identical installs (node, view, instant); a different seed still
// agrees on the same membership sequence.
func TestDeterministicViewHistory(t *testing.T) {
	run := func(seed int64) []Install {
		r := rig(t, 4, seed)
		r.svc.Start()
		fault.CrashAt(r.eng, r.net, 1, vtime.Time(40*ms), vtime.Time(150*ms))
		r.eng.Run(vtime.Time(400 * ms))
		return r.svc.Installs
	}
	a, b := run(7), run(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different installs:\n%v\n%v", a, b)
	}
	c := run(8)
	// Membership agreement is seed-independent even though timing
	// (link delays) is not.
	seq := func(ins []Install) []string {
		var out []string
		seen := map[uint64]bool{}
		for _, in := range ins {
			if !seen[in.View.ID] {
				seen[in.View.ID] = true
				out = append(out, in.View.String())
			}
		}
		return out
	}
	if !reflect.DeepEqual(seq(a), seq(c)) {
		t.Fatalf("view sequences differ across seeds: %v vs %v", seq(a), seq(c))
	}
}

// TestOverlappingGroupsDoNotInterfere: two groups sharing nodes keep
// independent heartbeat traffic (scoped ports) — neither falsely
// ejects a live member of the other (regression: a shared heartbeat
// port let the later group's bindings steal the earlier's heartbeats).
func TestOverlappingGroupsDoNotInterfere(t *testing.T) {
	eng := simkern.NewEngine(monitor.NewLog(0), 1)
	nodes := []int{0, 1, 2, 3}
	for range nodes {
		eng.AddProcessor("n", 0)
	}
	net := netsim.New(eng, netsim.Config{WAtm: 5 * us, WProto: 5 * us, PrioNet: simkern.PrioMax - 2})
	net.ConnectAll(nodes, 50*us, 150*us)
	a, err := New(eng, net, Config{Name: "a", Nodes: []int{0, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(eng, net, Config{Name: "b", Nodes: []int{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	a.Start()
	b.Start()
	eng.Run(vtime.Time(300 * ms))
	if got := a.AgreedViews(); len(got) != 1 {
		t.Fatalf("group a changed views with no faults: %v", got)
	}
	if got := b.AgreedViews(); len(got) != 1 {
		t.Fatalf("group b changed views with no faults: %v", got)
	}
}

// TestValidation: config errors are rejected.
func TestValidation(t *testing.T) {
	eng := simkern.NewEngine(monitor.NewLog(0), 1)
	eng.AddProcessor("n", 0)
	eng.AddProcessor("n", 0)
	net := netsim.New(eng, netsim.Config{})
	net.ConnectAll([]int{0, 1}, 50*us, 150*us)
	if _, err := New(eng, net, Config{Name: "x", Nodes: []int{0}}); err == nil {
		t.Fatal("single-node group accepted")
	}
	wide := make([]int, MaxMembers+1)
	for i := range wide {
		wide[i] = i
	}
	if _, err := New(eng, net, Config{Name: "x", Nodes: wide}); err == nil {
		t.Fatalf("%d-node group accepted (bitmask overflow)", len(wide))
	}
	if _, err := New(eng, net, Config{Name: "x", Nodes: []int{0, 0}}); err == nil {
		t.Fatal("duplicate node id accepted")
	}
}

// TestViewsEncodeMembersByIndex: bit i of a view proposal is the i-th
// node of the group's sorted universe, not node i, so node ids past 62
// (the width of the int64 bitmask) build, and a member crash installs
// the next view at every live member.
func TestViewsEncodeMembersByIndex(t *testing.T) {
	eng := simkern.NewEngine(monitor.NewLog(0), 1)
	for range 101 {
		eng.AddProcessor("n", 0)
	}
	nodes := []int{100, 0, 63}
	net := netsim.New(eng, netsim.Config{WAtm: 5 * us, WProto: 5 * us, PrioNet: simkern.PrioMax - 2})
	net.ConnectAll(nodes, 50*us, 150*us)
	svc, err := New(eng, net, Config{Name: "g", Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	fault.CrashAt(eng, net, 63, vtime.Time(40*ms), 0)
	eng.Run(vtime.Time(200 * ms))
	want := []View{
		{ID: 1, Members: []int{0, 63, 100}},
		{ID: 2, Members: []int{0, 100}},
	}
	for _, n := range []int{0, 100} {
		if got := history(svc, n); !reflect.DeepEqual(got, want) {
			t.Fatalf("node %d view history %v, want %v", n, got, want)
		}
	}
}

// TestPartitionMinorityBlocksAndMerges is the split-brain acceptance
// test: a partition isolates one member; only the majority side (a
// strict quorum of the previous view) installs the removal view, the
// minority installs nothing while partitioned, and the heal re-admits
// it through a merge view.
func TestPartitionMinorityBlocksAndMerges(t *testing.T) {
	r := rig(t, 3, 1)
	r.svc.Start()
	splitAt := vtime.Time(40 * ms)
	healAt := vtime.Time(150 * ms)
	fault.PartitionAt(r.eng, r.net, splitAt, 0, []int{0}, []int{1, 2})
	fault.HealAt(r.eng, r.net, healAt)
	r.eng.Run(vtime.Time(300 * ms))

	want := []View{
		{ID: 1, Members: []int{0, 1, 2}},
		{ID: 2, Members: []int{1, 2}},
		{ID: 3, Members: []int{0, 1, 2}},
	}
	if got := r.svc.AgreedViews(); !reflect.DeepEqual(got, want) {
		t.Fatalf("agreed views %v, want %v", got, want)
	}
	for _, n := range []int{1, 2} {
		if got := history(r.svc, n); !reflect.DeepEqual(got, want) {
			t.Fatalf("majority node %d history %v, want %v", n, got, want)
		}
	}
	// The minority member held its old view for the whole split: no
	// install between the split and the merge.
	if got := history(r.svc, 0); !reflect.DeepEqual(got, []View{want[0], want[2]}) {
		t.Fatalf("minority history %v, want [v1 v3]", got)
	}
	for _, in := range r.svc.Installs {
		if in.Node == 0 && in.At > splitAt && in.View.ID == 2 {
			t.Fatalf("minority installed %v while partitioned", in)
		}
	}
	if b := r.svc.blockedTime(0); b == 0 {
		t.Fatal("minority blocked time not recorded")
	}
	if q := r.svc.NoQuorumTime(); q != 0 {
		t.Fatalf("no-quorum time %s, want 0 (the majority side always had quorum)", q)
	}
	if len(r.svc.Merges) != 1 {
		t.Fatalf("merges %+v, want exactly 1", r.svc.Merges)
	}
	mg := r.svc.Merges[0]
	if !reflect.DeepEqual(mg.Readmitted, []int{0}) || mg.HealAt != healAt || mg.Latency == 0 {
		t.Fatalf("merge record %+v", mg)
	}
	// The merge ran the state-transfer path (via the join protocol):
	// the blocked span closed at the merge install.
	if r.svc.blockedTime(0) != mg.At.Sub(r.svc.Installs[3].At) && r.svc.blockedTime(0) == 0 {
		t.Fatalf("blocked span not closed at merge")
	}
}

// TestSymmetricSplitBlocksEverySide: a 2-2 split of a 4-member group
// leaves no side with a strict majority — nobody installs any view
// (total block, no split brain), and the heal retracts the mutual
// suspicions without any membership change.
func TestSymmetricSplitBlocksEverySide(t *testing.T) {
	r := rig(t, 4, 1)
	r.svc.Start()
	fault.PartitionAt(r.eng, r.net, vtime.Time(40*ms), 0, []int{0, 1}, []int{2, 3})
	fault.HealAt(r.eng, r.net, vtime.Time(150*ms))
	r.eng.Run(vtime.Time(300 * ms))

	if got := viewIDs(r.svc.AgreedViews()); !reflect.DeepEqual(got, []uint64{1}) {
		t.Fatalf("agreed views %v, want only the initial view", got)
	}
	for n := 0; n < 4; n++ {
		if got := history(r.svc, n); len(got) != 1 {
			t.Fatalf("node %d installed %v during/after a symmetric split", n, got)
		}
	}
	if q := r.svc.NoQuorumTime(); q < 50*ms {
		t.Fatalf("no-quorum time %s, want the bulk of the split window", q)
	}
}

// TestPartitionDuringConsensusRetriesAfterHeal: a total split striking
// mid-consensus must not let any side's decision become a view (the
// quorum gate rejects every decider); the change re-arms and completes
// once the heal restores a quorum.
func TestPartitionDuringConsensusRetriesAfterHeal(t *testing.T) {
	eng := simkern.NewEngine(monitor.NewLog(0), 1)
	nodes := []int{0, 1, 2, 3}
	for range nodes {
		eng.AddProcessor("n", 0)
	}
	net := netsim.New(eng, netsim.Config{WAtm: 5 * us, WProto: 5 * us, PrioNet: simkern.PrioMax - 2})
	// Slow links size the consensus rounds at ~15ms, so the split lands
	// mid-agreement.
	net.ConnectAll(nodes, 5*ms, 15*ms)
	svc, err := New(eng, net, Config{Name: "g", Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	fault.CrashAt(eng, net, 3, vtime.Time(40*ms), 0)
	// Suspicion at 70ms starts the v2 consensus (rounds 70→100ms); at
	// 85ms every survivor is isolated alone.
	fault.PartitionAt(eng, net, vtime.Time(85*ms), 0, []int{0}, []int{1}, []int{2})
	healAt := vtime.Time(150 * ms)
	fault.HealAt(eng, net, healAt)
	eng.Run(vtime.Time(300 * ms))

	// No view may have installed before the heal.
	for _, in := range svc.Installs {
		if in.View.ID > 1 && in.At < healAt {
			t.Fatalf("view %v installed at %s, during the total split", in.View, in.At)
		}
	}
	want := []View{
		{ID: 1, Members: []int{0, 1, 2, 3}},
		{ID: 2, Members: []int{0, 1, 2}},
	}
	if got := svc.AgreedViews(); !reflect.DeepEqual(got, want) {
		t.Fatalf("agreed views %v, want %v", got, want)
	}
	for _, n := range []int{0, 1, 2} {
		if got := history(svc, n); !reflect.DeepEqual(got, want) {
			t.Fatalf("node %d history %v, want %v", n, got, want)
		}
	}
	if q := svc.NoQuorumTime(); q == 0 {
		t.Fatal("total split recorded no no-quorum time")
	}
}

// TestCascadedViewChangesSerialise: a suspicion landing while another
// view change's consensus is still in flight must queue and produce
// the next totally ordered view — never an interleaved or competing
// one (regression for overlapping churn).
func TestCascadedViewChangesSerialise(t *testing.T) {
	eng := simkern.NewEngine(monitor.NewLog(0), 1)
	nodes := []int{0, 1, 2, 3, 4}
	for range nodes {
		eng.AddProcessor("n", 0)
	}
	net := netsim.New(eng, netsim.Config{WAtm: 5 * us, WProto: 5 * us, PrioNet: simkern.PrioMax - 2})
	// Slow links size the consensus rounds at ~15ms: the v2 change
	// (suspicion at 70ms, decision at 100ms, install at 130ms) is
	// mid-flight when node 3's crash is detected (~90ms).
	net.ConnectAll(nodes, 5*ms, 15*ms)
	svc, err := New(eng, net, Config{Name: "g", Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	fault.CrashAt(eng, net, 4, vtime.Time(40*ms), 0)
	fault.CrashAt(eng, net, 3, vtime.Time(55*ms), 0)
	eng.Run(vtime.Time(400 * ms))

	want := []View{
		{ID: 1, Members: []int{0, 1, 2, 3, 4}},
		{ID: 2, Members: []int{0, 1, 2, 3}},
		{ID: 3, Members: []int{0, 1, 2}},
	}
	if got := svc.AgreedViews(); !reflect.DeepEqual(got, want) {
		t.Fatalf("agreed views %v, want %v (cascade must serialise)", got, want)
	}
	// Every survivor installed the same total order, and each view at
	// one instant everywhere.
	for _, n := range []int{0, 1, 2} {
		if got := history(svc, n); !reflect.DeepEqual(got, want) {
			t.Fatalf("node %d history %v diverges from agreed %v", n, got, want)
		}
	}
	instants := map[uint64]vtime.Time{}
	for _, in := range svc.Installs {
		if prev, seen := instants[in.View.ID]; seen && prev != in.At {
			t.Fatalf("view %d installed at both %s and %s", in.View.ID, prev, in.At)
		}
		instants[in.View.ID] = in.At
	}
	// The cascade serialises: v3 installs strictly after v2.
	if instants[3] <= instants[2] {
		t.Fatalf("v3 at %s not after v2 at %s", instants[3], instants[2])
	}
}

// TestBlockedNodeCrashAndRecoveryStaysAMerge: a blocked minority node
// that crashes and recovers while still partitioned is blocked again
// on recovery — its eventual re-admission is still counted as a merge
// and its blocked time spans both alive segments.
func TestBlockedNodeCrashAndRecoveryStaysAMerge(t *testing.T) {
	r := rig(t, 3, 1)
	r.svc.Start()
	fault.PartitionAt(r.eng, r.net, vtime.Time(40*ms), 0, []int{0}, []int{1, 2})
	fault.CrashAt(r.eng, r.net, 0, vtime.Time(80*ms), vtime.Time(120*ms))
	fault.HealAt(r.eng, r.net, vtime.Time(150*ms))
	r.eng.Run(vtime.Time(300 * ms))

	if got := viewIDs(history(r.svc, 0)); !reflect.DeepEqual(got, []uint64{1, 3}) {
		t.Fatalf("minority history %v, want [1 3]", got)
	}
	if len(r.svc.Merges) != 1 || !reflect.DeepEqual(r.svc.Merges[0].Readmitted, []int{0}) {
		t.Fatalf("merges %+v, want the re-admission counted as a merge", r.svc.Merges)
	}
	// Blocked for ~(80-72)ms before the crash plus ~(152-120)ms after
	// recovery: well above either segment alone.
	if b := r.svc.blockedTime(0); b < 30*ms {
		t.Fatalf("blocked time %s too small — recovery span not reopened", b)
	}
}

// TestHasQuorumLocalKnowledge: HasQuorum tracks each node's *own* view
// of reachability. Under a partition the minority member loses it as
// soon as its detector times out on the unreachable majority — the
// stale-view serving gate of the sharded request layer — and regains
// it after the heal; plain crash churn never costs the survivors
// their quorum.
func TestHasQuorumLocalKnowledge(t *testing.T) {
	r := rig(t, 3, 3)
	r.svc.Start()
	r.eng.Run(vtime.Time(30 * ms))
	for n := 0; n < 3; n++ {
		if !r.svc.HasQuorum(n) {
			t.Fatalf("node %d lacks quorum with full connectivity", n)
		}
	}
	// Segment node 0 off alone; its detector must reveal the loss.
	r.net.SetPartition([]int{0}, []int{1, 2})
	r.eng.Run(r.eng.Now().Add(60 * ms))
	if r.svc.HasQuorum(0) {
		t.Fatal("isolated minority member still claims a quorum")
	}
	if !r.svc.HasQuorum(1) || !r.svc.HasQuorum(2) {
		t.Fatal("majority side lost its quorum")
	}
	// Heal: heartbeats resume, rehabilitation restores the claim (the
	// merge view re-admits node 0, whose own view then holds again).
	r.net.Heal()
	r.eng.Run(r.eng.Now().Add(80 * ms))
	if !r.svc.HasQuorum(0) {
		t.Fatal("healed member never regained its quorum")
	}
	// A crash shrinks the live denominator instead of blocking the
	// survivors.
	fault.CrashAt(r.eng, r.net, 2, r.eng.Now().Add(1*ms), 0)
	r.eng.Run(r.eng.Now().Add(60 * ms))
	if !r.svc.HasQuorum(0) || !r.svc.HasQuorum(1) {
		t.Fatal("crash churn cost the survivors their quorum")
	}
}

// TestOnMergeFires: the merge hook fires exactly once per partition
// merge, with the re-admitted members.
func TestOnMergeFires(t *testing.T) {
	r := rig(t, 3, 5)
	var merges []Merge
	r.svc.OnMerge(func(m Merge) { merges = append(merges, m) })
	r.svc.Start()
	fault.PartitionAt(r.eng, r.net, vtime.Time(20*ms), 0, []int{0}, []int{1, 2})
	fault.HealAt(r.eng, r.net, vtime.Time(120*ms))
	r.eng.Run(vtime.Time(250 * ms))
	if len(merges) != 1 {
		t.Fatalf("merge hook fired %d times, want 1", len(merges))
	}
	if got := merges[0].Readmitted; len(got) != 1 || got[0] != 0 {
		t.Fatalf("merge re-admitted %v, want [0]", got)
	}
}
