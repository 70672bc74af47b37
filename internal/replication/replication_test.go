package replication

import (
	"testing"

	"hades/internal/eventq"
	"hades/internal/fault"
	"hades/internal/membership"
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
	mem *membership.Service
}

func rig(t testing.TB, n int) rigT {
	t.Helper()
	eng := simkern.NewEngine(monitor.NewLog(0), 53)
	nodes := make([]int, n)
	for i := 0; i < n; i++ {
		eng.AddProcessor("n", 0)
		nodes[i] = i
	}
	net := netsim.New(eng, netsim.Config{WAtm: 5 * us, WProto: 5 * us, PrioNet: simkern.PrioMax - 2})
	net.ConnectAll(nodes, 50*us, 150*us)
	mem, err := membership.New(eng, net, membership.Config{Name: "mg", Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	mem.Start()
	return rigT{eng: eng, net: net, mem: mem}
}

func newGroup(t *testing.T, r rigT, style Style, replicas []int) (*Group, *[]int64) {
	t.Helper()
	var results []int64
	g, err := NewGroup(r.eng, r.net, r.mem, Config{
		Name:            "g",
		Replicas:        replicas,
		Style:           style,
		WExec:           100 * us,
		CheckpointEvery: 5,
		StorageLatency:  20 * us,
	}, func(_ uint64, res int64, _ bool) { results = append(results, res) })
	if err != nil {
		t.Fatal(err)
	}
	return g, &results
}

// drive submits one request per millisecond from the client node.
func drive(r rigT, g *Group, from int, count int) {
	for i := 0; i < count; i++ {
		cmd := int64(i + 1)
		r.eng.At(vtime.Time(vtime.Duration(i)*ms), eventq.ClassApp, func() {
			g.Submit(from, cmd)
		})
	}
}

func TestActiveReplicationMasksValueFault(t *testing.T) {
	r := rig(t, 4)
	g, results := newGroup(t, r, Active, []int{0, 1, 2})
	// One replica computes corrupt values (coherent value failure).
	g.Machine(1).Corrupt = func(v int64) int64 { return v + 1000000 }
	drive(r, g, 3, 10)
	r.eng.Run(vtime.Time(50 * ms))
	if len(*results) != 10 {
		t.Fatalf("voted results %d, want 10", len(*results))
	}
	// Majority (nodes 0, 2) is correct: results must match a clean
	// state machine.
	ref := &StateMachine{}
	for i, got := range *results {
		want := ref.Apply(int64(i + 1))
		if got != want {
			t.Fatalf("request %d: voted %d, want %d (value fault leaked)", i+1, got, want)
		}
	}
}

func TestActiveReplicationSurvivesCrashWithoutFailover(t *testing.T) {
	r := rig(t, 4)
	g, results := newGroup(t, r, Active, []int{0, 1, 2})
	fault.CrashAt(r.eng, r.net, 1, vtime.Time(3*ms), 0)
	drive(r, g, 3, 10)
	r.eng.Run(vtime.Time(100 * ms))
	if len(*results) != 10 {
		t.Fatalf("results %d, want 10 (majority alive)", len(*results))
	}
	if len(g.Failovers) != 0 {
		t.Fatal("active replication must not fail over")
	}
}

func TestPassiveReplicationFailover(t *testing.T) {
	r := rig(t, 4)
	g, results := newGroup(t, r, Passive, []int{0, 1, 2})
	crashAt := vtime.Time(10*ms + 500*us)
	fault.CrashAt(r.eng, r.net, 0, crashAt, 0)
	drive(r, g, 3, 30)
	r.eng.Run(vtime.Time(300 * ms))
	if len(g.Failovers) != 1 {
		t.Fatalf("failovers %d, want 1", len(g.Failovers))
	}
	fo := g.Failovers[0]
	if fo.From != 0 || fo.To != 1 {
		t.Fatalf("failover %+v", fo)
	}
	// Detection + promotion happens within the detector bound.
	lat := fo.At.Sub(crashAt)
	if lat > 50*ms {
		t.Fatalf("failover latency %s too large", lat)
	}
	// Work since the last checkpoint is lost (checkpoint every 5).
	if fo.LostSince == 0 || fo.LostSince > 5 {
		t.Fatalf("lost work %d, want in (0,5]", fo.LostSince)
	}
	// The new primary keeps serving.
	if len(*results) == 0 {
		t.Fatal("no results at all")
	}
	post := 0
	for _, e := range r.eng.Log().ByKind(monitor.KindFailover) {
		_ = e
		post++
	}
	if post != 1 {
		t.Fatalf("failover events %d", post)
	}
}

func TestSemiActiveFailoverLosesNothing(t *testing.T) {
	r := rig(t, 4)
	g, _ := newGroup(t, r, SemiActive, []int{0, 1, 2})
	fault.CrashAt(r.eng, r.net, 0, vtime.Time(10*ms+500*us), 0)
	drive(r, g, 3, 30)
	r.eng.Run(vtime.Time(300 * ms))
	if len(g.Failovers) != 1 {
		t.Fatalf("failovers %d, want 1", len(g.Failovers))
	}
	if g.LostWork != 0 {
		t.Fatalf("semi-active lost %d requests, want 0 (followers execute everything)", g.LostWork)
	}
}

func TestPassiveCheckpointsReachBackups(t *testing.T) {
	r := rig(t, 4)
	g, _ := newGroup(t, r, Passive, []int{0, 1, 2})
	drive(r, g, 3, 12)
	r.eng.Run(vtime.Time(100 * ms))
	// 12 requests, checkpoint every 5: at least 2 checkpoints.
	if n := r.eng.Log().CountKind(monitor.KindCheckpoint); n < 2 {
		t.Fatalf("checkpoints %d, want >= 2", n)
	}
	// Backups hold a recent state (within CheckpointEvery of primary).
	primary := g.Machine(0)
	backup := g.Machine(1)
	if primary.Applied-backup.Applied > 5 {
		t.Fatalf("backup lag %d > checkpoint interval", primary.Applied-backup.Applied)
	}
	// Backups must not have executed requests themselves beyond
	// checkpoint application.
	if backup.Applied > primary.Applied {
		t.Fatal("backup ran ahead of primary")
	}
}

func TestStyleCostsDiffer(t *testing.T) {
	// Active replication burns CPU on every replica; passive only on
	// the primary. Compare total execution CPU.
	runStyle := func(style Style) vtime.Duration {
		r := rig(t, 4)
		g, _ := newGroup(t, r, style, []int{0, 1, 2})
		drive(r, g, 3, 20)
		r.eng.Run(vtime.Time(100 * ms))
		var busy vtime.Duration
		for _, p := range r.eng.Processors()[:3] {
			busy += p.BusyTime()
		}
		return busy
	}
	active := runStyle(Active)
	passive := runStyle(Passive)
	if active <= passive {
		t.Fatalf("active CPU %s not above passive %s", active, passive)
	}
}

func TestGroupValidation(t *testing.T) {
	r := rig(t, 2)
	if _, err := NewGroup(r.eng, r.net, r.mem, Config{Name: "x", Replicas: []int{0}}, nil); err == nil {
		t.Fatal("single replica accepted")
	}
	if _, err := NewGroup(r.eng, r.net, nil, Config{Name: "x", Replicas: []int{0, 1}, Style: Passive}, nil); err == nil {
		t.Fatal("passive without membership accepted")
	}
	if _, err := NewGroup(r.eng, r.net, nil, Config{Name: "x", Replicas: []int{0, 1}, Style: Active}, nil); err != nil {
		t.Fatalf("active without membership rejected: %v", err)
	}
	if _, err := NewGroup(r.eng, r.net, r.mem, Config{Name: "x", Replicas: []int{0, 9}, Style: Passive}, nil); err == nil {
		t.Fatal("replica outside the membership universe accepted")
	}
}

// TestFailoverIsViewDriven: the promotion instant coincides with the
// installation of the view that excludes the old primary, and the
// Failover record names that view.
func TestFailoverIsViewDriven(t *testing.T) {
	r := rig(t, 4)
	g, _ := newGroup(t, r, Passive, []int{0, 1, 2})
	fault.CrashAt(r.eng, r.net, 0, vtime.Time(10*ms), 0)
	drive(r, g, 3, 30)
	r.eng.Run(vtime.Time(300 * ms))
	if len(g.Failovers) != 1 {
		t.Fatalf("failovers %d, want 1", len(g.Failovers))
	}
	fo := g.Failovers[0]
	var installAt vtime.Time
	for _, in := range r.mem.Installs {
		if in.View.ID == fo.InView {
			installAt = in.At
		}
	}
	if installAt == 0 || fo.At != installAt {
		t.Fatalf("failover at %s, view %d installed at %s — not view-driven", fo.At, fo.InView, installAt)
	}
	if fo.InView != 2 {
		t.Fatalf("failover in view %d, want 2", fo.InView)
	}
}

// TestStateTransferWhenDonorIsNotAReplica: the membership-chosen
// donor (lowest live member of the previous view) may not be a
// replica; the snapshot must still come from a live replica
// (regression: a nil donor machine silently skipped the transfer).
func TestStateTransferWhenDonorIsNotAReplica(t *testing.T) {
	r := rig(t, 4) // membership over 0-3; node 0 is a pure member
	g, _ := newGroup(t, r, Passive, []int{1, 2})
	fault.CrashAt(r.eng, r.net, 2, vtime.Time(10*ms), vtime.Time(100*ms))
	drive(r, g, 3, 60)
	r.eng.Run(vtime.Time(400 * ms))
	// The rejoin's membership donor is node 0 (lowest live previous
	// member), which holds no replica state — the snapshot must fall
	// back to primary 1.
	if len(r.mem.Transfers) != 1 {
		t.Fatalf("transfers %+v, want exactly 1", r.mem.Transfers)
	}
	if g.Machine(2).Applied == 0 {
		t.Fatal("rejoined backup never restored state")
	}
	if lag := g.Machine(1).Applied - g.Machine(2).Applied; lag < 0 || lag > 5 {
		t.Fatalf("rejoined backup lag %d outside [0, checkpoint interval]", lag)
	}
}

// TestRejoinedPrimaryRestoredAsBackup: a crashed-then-recovered former
// primary rejoins the group as a backup (sticky leadership) with its
// state machine restored by the join state transfer.
func TestRejoinedPrimaryRestoredAsBackup(t *testing.T) {
	r := rig(t, 4)
	g, _ := newGroup(t, r, Passive, []int{0, 1, 2})
	fault.CrashAt(r.eng, r.net, 0, vtime.Time(10*ms), vtime.Time(100*ms))
	drive(r, g, 3, 60)
	r.eng.Run(vtime.Time(400 * ms))
	if len(g.Failovers) != 1 {
		t.Fatalf("failovers %+v, want exactly 1 (leadership is sticky)", g.Failovers)
	}
	if got := g.Primary(); got != 1 {
		t.Fatalf("primary %d after rejoin, want 1", got)
	}
	// The rejoined replica was restored and kept fed by checkpoints.
	final := r.mem.CurrentView(0)
	if !final.Contains(0) {
		t.Fatalf("node 0 not back in the view: %v", final)
	}
	rejoined, primary := g.Machine(0), g.Machine(1)
	if rejoined.Applied == 0 {
		t.Fatal("rejoined replica never restored state")
	}
	if lag := primary.Applied - rejoined.Applied; lag < 0 || lag > 5 {
		t.Fatalf("rejoined replica lag %d outside [0, checkpoint interval]", lag)
	}
}

func TestStyleNames(t *testing.T) {
	for _, s := range []Style{Active, Passive, SemiActive} {
		if s.String() == "unknown" {
			t.Errorf("style %d unnamed", s)
		}
	}
}

// TestPartitionSplitBrainSafety: the primary is segmented off alone
// (not crashed). Exactly one side — the majority — promotes, the
// isolated ex-primary installs no view while partitioned, and after
// the heal it is re-admitted through a merge view with the
// authoritative majority state restored.
func TestPartitionSplitBrainSafety(t *testing.T) {
	r := rig(t, 4)
	g, _ := newGroup(t, r, Passive, []int{0, 1, 2})
	splitAt := vtime.Time(30 * ms)
	healAt := vtime.Time(150 * ms)
	// The client (node 3) stays with the majority side.
	fault.PartitionAt(r.eng, r.net, splitAt, 0, []int{0}, []int{1, 2, 3})
	fault.HealAt(r.eng, r.net, healAt)
	drive(r, g, 3, 300)
	r.eng.Run(vtime.Time(400 * ms))

	// Exactly one promotion, on the majority side, in the removal view.
	if len(g.Failovers) != 1 {
		t.Fatalf("failovers %+v, want exactly 1 (no second leader anywhere)", g.Failovers)
	}
	fo := g.Failovers[0]
	if fo.From != 0 || fo.To != 1 || fo.InView != 2 {
		t.Fatalf("failover %+v", fo)
	}
	// The isolated minority installed nothing during the split.
	var hist []uint64
	for _, in := range r.mem.Installs {
		if in.Node == 0 {
			hist = append(hist, in.View.ID)
		}
	}
	if len(hist) != 2 || hist[0] != 1 || hist[1] != 3 {
		t.Fatalf("minority history %v, want [v1 v3]", hist)
	}
	if b := r.mem.TotalBlockedTime(); b == 0 {
		t.Fatal("minority blocked time not recorded")
	}
	// The merge re-admitted the ex-primary as a backup with the
	// majority's state (sticky leadership + state transfer).
	if len(r.mem.Merges) != 1 {
		t.Fatalf("merges %+v, want 1", r.mem.Merges)
	}
	if g.Primary() != 1 {
		t.Fatalf("primary %d after merge, want 1", g.Primary())
	}
	if len(r.mem.Transfers) != 1 || r.mem.Transfers[0].To != 0 {
		t.Fatalf("transfers %+v, want exactly one to the re-admitted node", r.mem.Transfers)
	}
	// All replicas converged onto the majority log: the re-admitted
	// replica trails the primary by at most one checkpoint interval.
	primary, rejoined := g.Machine(1), g.Machine(0)
	if rejoined.Applied == 0 {
		t.Fatal("re-admitted replica never restored state")
	}
	if lag := primary.Applied - rejoined.Applied; lag < 0 || lag > 5 {
		t.Fatalf("re-admitted replica lag %d outside [0, checkpoint interval]", lag)
	}
}

// TestStaleCheckpointFlushedAtViewBoundary: a checkpoint from an
// ex-primary carrying an older view must be discarded by the receiver
// after the newer view installed — applying it would smuggle a
// pre-partition update past the boundary.
func TestStaleCheckpointFlushedAtViewBoundary(t *testing.T) {
	r := rig(t, 4)
	g, _ := newGroup(t, r, Passive, []int{0, 1, 2})
	fault.PartitionAt(r.eng, r.net, vtime.Time(10*ms), 0, []int{0}, []int{1, 2, 3})
	fault.HealAt(r.eng, r.net, vtime.Time(100*ms))
	drive(r, g, 3, 40)
	r.eng.Run(vtime.Time(100 * ms)) // v2{1,2,3} installed, 0 excluded
	// Immediately after the heal — before the merge view re-admits
	// node 0 — the isolated ex-primary's stale checkpoint reaches a
	// majority backup.
	before := g.Machine(2).Applied
	if _, err := r.net.Send(0, 2, g.ckptPort, ckptMsg{State: -777, Applied: 999, View: 1}, 24); err != nil {
		t.Fatal(err)
	}
	r.eng.Run(vtime.Time(103 * ms))
	if g.Flushed != 1 {
		t.Fatalf("flushed %d, want 1 (stale checkpoint must be discarded)", g.Flushed)
	}
	sm := g.Machine(2)
	if sm.State == -777 || sm.Applied == 999 {
		t.Fatalf("stale checkpoint applied: %+v", sm)
	}
	if sm.Applied < before {
		t.Fatalf("backup rolled back: %d < %d", sm.Applied, before)
	}
	if r.eng.Log().CountKind(monitor.KindFlush) == 0 {
		t.Fatal("flush not recorded in the monitor log")
	}
}

// TestTaggedRequestDedup: resubmitting a request with the same client
// tag is answered from the replicated dedup cache instead of applied
// again — the exactly-once contract the sharded client layer's
// retries rely on.
func TestTaggedRequestDedup(t *testing.T) {
	r := rig(t, 4)
	g, results := newGroup(t, r, SemiActive, []int{0, 1, 2})
	tag := ClientSeq{Client: 42, Seq: 1}
	r.eng.At(vtime.Time(1*ms), eventq.ClassApp, func() { g.SubmitTagged(0, 7, tag) })
	r.eng.At(vtime.Time(5*ms), eventq.ClassApp, func() { g.SubmitTagged(0, 7, tag) }) // a retry
	r.eng.At(vtime.Time(9*ms), eventq.ClassApp, func() { g.SubmitTagged(0, 9, ClientSeq{Client: 42, Seq: 2}) })
	r.eng.Run(vtime.Time(30 * ms))

	if got := g.Machine(0).Applied; got != 2 {
		t.Fatalf("leader applied %d commands, want 2 (retry suppressed)", got)
	}
	if g.Duplicates == 0 {
		t.Fatal("no duplicate recorded")
	}
	if len(*results) != 3 {
		t.Fatalf("replies %d, want 3 (duplicates still answered)", len(*results))
	}
	if (*results)[0] != (*results)[1] {
		t.Fatalf("retry answered %d, original %d — cache miss", (*results)[1], (*results)[0])
	}
	// Followers deduplicate identically (they execute everything).
	if got := g.Machine(1).Applied; got != 2 {
		t.Fatalf("follower applied %d commands, want 2", got)
	}
}

// TestDedupSurvivesFailover: a request applied by the leader and its
// followers just before the leader crashes is answered from the new
// leader's dedup cache when retried — not applied twice.
func TestDedupSurvivesFailover(t *testing.T) {
	r := rig(t, 4)
	g, results := newGroup(t, r, SemiActive, []int{0, 1, 2})
	tag := ClientSeq{Client: 7, Seq: 1}
	r.eng.At(vtime.Time(1*ms), eventq.ClassApp, func() { g.SubmitTagged(0, 5, tag) })
	fault.CrashAt(r.eng, r.net, 0, vtime.Time(5*ms), 0)
	// Retry against the group after the failover view installed.
	r.eng.At(vtime.Time(60*ms), eventq.ClassApp, func() { g.SubmitTagged(1, 5, tag) })
	r.eng.Run(vtime.Time(100 * ms))

	if len(g.Failovers) != 1 {
		t.Fatalf("failovers %+v, want 1", g.Failovers)
	}
	p := g.Primary()
	if got := g.Machine(p).Applied; got != 1 {
		t.Fatalf("new leader applied %d, want 1 (retry suppressed by replicated dedup)", got)
	}
	if len(*results) < 2 {
		t.Fatalf("replies %d, want the original and the cached retry", len(*results))
	}
	last := (*results)[len(*results)-1]
	if last != (*results)[0] {
		t.Fatalf("cached retry answered %d, original %d", last, (*results)[0])
	}
}

// TestDedupSurvivesJoinTransferThenMergeView pins the PR 4 transfer
// path under a back-to-back recovery sequence: the same replica first
// rejoins after a crash (join state transfer carries the Seen table),
// then is partitioned off and re-admitted through a merge view (a
// second state transfer). After BOTH transitions the replica must
// still suppress a retry of a request applied before the crash —
// i.e. the replicated dedup table survives each hop of the
// snapshot/restore chain, not just the first.
func TestDedupSurvivesJoinTransferThenMergeView(t *testing.T) {
	r := rig(t, 4)
	g, results := newGroup(t, r, SemiActive, []int{0, 1, 2})
	tag := ClientSeq{Client: 11, Seq: 1}
	r.eng.At(vtime.Time(1*ms), eventq.ClassApp, func() { g.SubmitTagged(3, 7, tag) })
	// Crash replica 2 after the apply; it rejoins with a join state
	// transfer at 100 ms.
	fault.CrashAt(r.eng, r.net, 2, vtime.Time(5*ms), vtime.Time(100*ms))
	r.eng.Run(vtime.Time(150 * ms)) // join view installed, transfer done
	if len(r.mem.Transfers) != 1 {
		t.Fatalf("transfers after rejoin %+v, want 1", r.mem.Transfers)
	}
	if g.Machine(2).seenLen() != 1 {
		t.Fatalf("join transfer dropped the dedup table: %d entries, want 1", g.Machine(2).seenLen())
	}
	// Immediately partition the same replica off; the majority excludes
	// it, and the heal re-admits it through a merge view with a second
	// state transfer.
	fault.PartitionAt(r.eng, r.net, vtime.Time(151*ms), 0, []int{2}, []int{0, 1, 3})
	fault.HealAt(r.eng, r.net, vtime.Time(220*ms))
	r.eng.Run(vtime.Time(300 * ms))
	if len(r.mem.Merges) != 1 {
		t.Fatalf("merges %+v, want 1", r.mem.Merges)
	}
	if got := len(r.mem.Transfers); got != 2 {
		t.Fatalf("transfers after merge %d, want 2 (join + merge re-admission)", got)
	}
	if g.Machine(2).seenLen() != 1 {
		t.Fatalf("merge transfer dropped the dedup table: %d entries, want 1", g.Machine(2).seenLen())
	}
	// The retry of the pre-crash request must be a cache hit everywhere
	// — including at the twice-restored replica.
	applied := g.Machine(2).Applied
	r.eng.At(vtime.Time(301*ms), eventq.ClassApp, func() { g.SubmitTagged(3, 7, tag) })
	r.eng.Run(vtime.Time(350 * ms))
	if g.Duplicates == 0 {
		t.Fatal("retry after join+merge not suppressed by the dedup table")
	}
	if got := g.Machine(2).Applied; got != applied {
		t.Fatalf("twice-restored replica re-applied the retry: %d -> %d", applied, got)
	}
	if last, first := (*results)[len(*results)-1], (*results)[0]; last != first {
		t.Fatalf("cached retry answered %d, original %d", last, first)
	}
}

// TestDedupTravelsWithPassiveCheckpoint: the dedup table moves with
// the state — a passive checkpoint carries it, so a promoted backup
// suppresses exactly the duplicates its restored state covers.
func TestDedupTravelsWithPassiveCheckpoint(t *testing.T) {
	r := rig(t, 4)
	g, _ := newGroup(t, r, Passive, []int{0, 1, 2}) // CheckpointEvery: 5
	for i := 0; i < 5; i++ {
		cmd := int64(i + 1)
		seq := uint64(i + 1)
		r.eng.At(vtime.Time(vtime.Duration(i)*ms), eventq.ClassApp, func() {
			g.SubmitTagged(3, cmd, ClientSeq{Client: 9, Seq: seq})
		})
	}
	r.eng.Run(vtime.Time(20 * ms))
	if g.Machine(1).seenLen() != 5 {
		t.Fatalf("backup dedup table has %d entries after the checkpoint, want 5", g.Machine(1).seenLen())
	}
	// Crash the primary; the promoted backup must suppress a retry of
	// a checkpointed request.
	fault.CrashAt(r.eng, r.net, 0, vtime.Time(21*ms), 0)
	r.eng.At(vtime.Time(80*ms), eventq.ClassApp, func() {
		g.SubmitTagged(3, 3, ClientSeq{Client: 9, Seq: 3})
	})
	r.eng.Run(vtime.Time(120 * ms))
	p := g.Primary()
	if p == 0 {
		t.Fatal("no failover")
	}
	if got := g.Machine(p).Applied; got != 5 {
		t.Fatalf("promoted backup applied %d, want 5 (checkpointed retry suppressed)", got)
	}
}

// seenLen returns the number of entries in the dedup table.
func (sm *StateMachine) seenLen() int { return len(sm.seen) }
