package cluster_test

import (
	"strings"
	"testing"

	"hades/internal/cluster"
	"hades/internal/dispatcher"
	"hades/internal/heug"
	"hades/internal/monitor"
	"hades/internal/sched"
	"hades/internal/vtime"
)

const (
	us = vtime.Microsecond
	ms = vtime.Millisecond
)

// diamond builds the fork-join HEUG of the dispatcher's distributed
// regression suite: a source on node 0 fans out to two branches on
// nodes 1 and 2, joining back on node 0.
func diamond(joined *[]int64) *heug.Task {
	return heug.NewTask("diamond", heug.AperiodicLaw()).
		WithDeadline(100*ms).
		Code("src", heug.CodeEU{Node: 0, WCET: 100 * us, Action: func(ctx heug.ActionContext) {
			ctx.Out("l", int64(1))
			ctx.Out("r", int64(2))
		}}).
		Code("left", heug.CodeEU{Node: 1, WCET: 300 * us, Action: func(ctx heug.ActionContext) {
			v, _ := ctx.In("l")
			ctx.Out("lv", v)
		}}).
		Code("right", heug.CodeEU{Node: 2, WCET: 500 * us, Action: func(ctx heug.ActionContext) {
			v, _ := ctx.In("r")
			ctx.Out("rv", v)
		}}).
		Code("join", heug.CodeEU{Node: 0, WCET: 100 * us, Action: func(ctx heug.ActionContext) {
			l, _ := ctx.In("lv")
			r, _ := ctx.In("rv")
			*joined = append(*joined, l.(int64)+r.(int64))
		}}).
		Precede("src", "left", "l").
		Precede("src", "right", "r").
		Precede("left", "join", "lv").
		Precede("right", "join", "rv").
		MustBuild()
}

// diamondRun executes one diamond run through the cluster API and
// returns the result plus the rendered event trace.
func diamondRun(seed int64) (cluster.Result, []string, *[]int64) {
	var joined []int64
	c := cluster.New(cluster.Config{Seed: seed, Costs: dispatcher.DefaultCostBook()})
	c.Log().Keep(monitor.Kinds()...)
	c.AddNodes(3)
	c.ConnectAll(100*us, 300*us)
	app := c.NewApp("app", sched.NewEDF(15*us), nil)
	app.MustSpawn(diamond(&joined))
	c.ActivateAt("diamond", 0)
	res := c.Run(200 * ms)
	var trace []string
	for _, e := range c.Log().Events() {
		trace = append(trace, e.String())
	}
	return res, trace, &joined
}

// TestDiamondViaCluster reproduces the dispatcher distributed_test
// diamond behaviour through the cluster API: one completion, the join
// sees 1+2, exactly four remote crossings, no spurious omissions.
func TestDiamondViaCluster(t *testing.T) {
	res, _, joined := diamondRun(21)
	if res.Stats.Completions != 1 {
		t.Fatalf("completions %d", res.Stats.Completions)
	}
	if len(*joined) != 1 || (*joined)[0] != 3 {
		t.Fatalf("join results %v, want [3]", *joined)
	}
	if res.Net.Delivered != 4 {
		t.Fatalf("remote messages %d, want 4", res.Net.Delivered)
	}
	if res.Stats.NetworkOmissions != 0 {
		t.Fatalf("spurious omission detections: %d", res.Stats.NetworkOmissions)
	}
}

// TestIdenticalSeedsIdenticalTraces asserts the determinism contract:
// a run is a pure function of the cluster description and the seed, so
// two identically-described clusters produce identical event traces.
func TestIdenticalSeedsIdenticalTraces(t *testing.T) {
	_, trace1, _ := diamondRun(21)
	_, trace2, _ := diamondRun(21)
	if len(trace1) == 0 {
		t.Fatal("empty trace")
	}
	if len(trace1) != len(trace2) {
		t.Fatalf("trace lengths differ: %d vs %d", len(trace1), len(trace2))
	}
	for i := range trace1 {
		if trace1[i] != trace2[i] {
			t.Fatalf("traces diverge at event %d:\n  %s\n  %s", i, trace1[i], trace2[i])
		}
	}
	// A different seed must still complete, but samples different link
	// delays — the traces are allowed (and expected) to differ.
	res, trace3, _ := diamondRun(99)
	if res.Stats.Completions != 1 {
		t.Fatalf("seed 99: completions %d", res.Stats.Completions)
	}
	same := len(trace1) == len(trace3)
	if same {
		for i := range trace1 {
			if trace1[i] != trace3[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced byte-identical traces — seeding is dead")
	}
}

// TestSpawnDrivesArrivalLaws: Spawn registers and drives periodic and
// sporadic tasks without any per-task generator wiring.
func TestSpawnDrivesArrivalLaws(t *testing.T) {
	c := cluster.New(cluster.Config{Seed: 1})
	c.AddNode("solo")
	app := c.NewApp("app", sched.NewEDF(10*us), nil)
	app.MustSpawn(heug.NewTask("per", heug.PeriodicEvery(10*ms)).
		WithDeadline(10*ms).
		Code("a", heug.CodeEU{Node: 0, WCET: 500 * us}).
		MustBuild())
	app.MustSpawn(heug.NewTask("spo", heug.SporadicEvery(20*ms)).
		WithDeadline(20*ms).
		Code("a", heug.CodeEU{Node: 0, WCET: 500 * us}).
		MustBuild())
	res := c.Run(100 * ms)
	per, ok := res.Task("per")
	if !ok || per.Activations < 10 {
		t.Fatalf("periodic task: %+v (ok=%v)", per, ok)
	}
	spo, ok := res.Task("spo")
	if !ok || spo.Activations < 5 {
		t.Fatalf("sporadic task: %+v (ok=%v)", spo, ok)
	}
	if res.Stats.DeadlineMisses != 0 {
		t.Fatalf("misses %d", res.Stats.DeadlineMisses)
	}
}

// TestOmissionInjection: a drop-every fault on the remote precedence
// port makes the dispatcher detect network omissions, and the counters
// surface in the Result.
func TestOmissionInjection(t *testing.T) {
	var joined []int64
	c := cluster.New(cluster.Config{Seed: 3, Costs: dispatcher.DefaultCostBook()})
	c.AddNodes(3)
	c.ConnectAll(100*us, 300*us)
	c.DropEvery(2, "heug.prec") // drop every 2nd remote crossing
	app := c.NewApp("app", sched.NewEDF(15*us), nil)
	app.MustSpawn(diamond(&joined))
	c.ActivateAt("diamond", 0)
	res := c.Run(200 * ms)
	if res.Net.Dropped == 0 {
		t.Fatal("no messages dropped despite injected omissions")
	}
	if res.Stats.NetworkOmissions == 0 {
		t.Fatal("dispatcher did not detect the injected omissions")
	}
}

// TestGroupLifecycleViaCluster: the cluster Group API runs the whole
// membership cycle — crash, agreed removal view, recovery, rejoin —
// and surfaces it in the Result, deterministically across runs.
func TestGroupLifecycleViaCluster(t *testing.T) {
	run := func() (cluster.Result, string) {
		c := cluster.New(cluster.Config{Seed: 5})
		c.AddNodes(3)
		c.ConnectAll(100*us, 300*us)
		g := c.Group("trio", 0, 1, 2)
		c.Crash(2, vtime.Time(40*ms), vtime.Time(150*ms))
		res := c.Run(300 * ms)
		hist := ""
		for _, in := range g.Membership().Installs {
			hist += in.View.String() + "@" + in.At.String() + ";"
		}
		return res, hist
	}
	res, hist1 := run()
	gr, ok := groupOf(res, "trio")
	if !ok {
		t.Fatal("group missing from Result")
	}
	if len(gr.Views) != 3 {
		t.Fatalf("agreed views %v, want removal + rejoin", gr.Views)
	}
	if gr.MaxViewLatency == 0 || gr.MaxViewLatency > gr.Bound {
		t.Fatalf("view latency %s outside (0, bound %s]", gr.MaxViewLatency, gr.Bound)
	}
	if _, hist2 := run(); hist1 != hist2 {
		t.Fatalf("same seed, different view installs:\n%s\n%s", hist1, hist2)
	}
}

// TestExplicitTopology: nodes connected only in a line; the delay
// bounds are per-link, and unconnected pairs have no link.
func TestExplicitTopology(t *testing.T) {
	c := cluster.New(cluster.Config{Seed: 1})
	c.AddNodes(3)
	c.Connect(0, 1, 50*us, 100*us)
	c.Connect(1, 2, 200*us, 400*us)
	net := c.Network()
	if net == nil {
		t.Fatal("no network despite declared links")
	}
	if d, ok := net.DelayBound(0, 1); !ok || d != 100*us {
		t.Fatalf("link 0-1 bound %s ok=%v", d, ok)
	}
	if d, ok := net.DelayBound(1, 2); !ok || d != 400*us {
		t.Fatalf("link 1-2 bound %s ok=%v", d, ok)
	}
	if _, ok := net.DelayBound(0, 2); ok {
		t.Fatal("0-2 should not be connected in a line topology")
	}
}

// TestPartitionViaCluster: the cluster-level partition fault drives
// the whole primary-partition story, and the Result surfaces
// quorum/blocked-time/merge-latency per group.
func TestPartitionViaCluster(t *testing.T) {
	c := cluster.New(cluster.Config{Seed: 9})
	c.AddNodes(4)
	c.ConnectAll(100*us, 300*us)
	g := c.Group("pp", 0, 1, 2)
	c.PartitionAt(vtime.Time(40*ms), []int{0}, []int{1, 2, 3})
	c.HealAt(vtime.Time(150 * ms))
	res := c.Run(300 * ms)

	gr, ok := groupOf(res, "pp")
	if !ok {
		t.Fatal("group missing from Result")
	}
	if len(gr.Views) != 3 {
		t.Fatalf("agreed views %v, want split-removal + merge", gr.Views)
	}
	if gr.Quorum != 2 {
		t.Fatalf("quorum %d, want 2 (strict majority of 3)", gr.Quorum)
	}
	if gr.BlockedTime == 0 {
		t.Fatal("blocked time missing from Result")
	}
	if gr.NoQuorumTime != 0 {
		t.Fatalf("no-quorum time %s, want 0 (one side always had quorum)", gr.NoQuorumTime)
	}
	if gr.Merges != 1 || gr.MergeLatency == 0 {
		t.Fatalf("merges=%d mergeLat=%s, want exactly one measured merge", gr.Merges, gr.MergeLatency)
	}
	// The minority member never installed a view while partitioned.
	var hist []string
	for _, in := range g.Membership().Installs {
		if in.Node == 0 {
			hist = append(hist, in.View.String())
		}
	}
	if len(hist) != 2 {
		t.Fatalf("minority history %v, want [v1 merge]", hist)
	}
}

// TestResultSurfacesLogDropped: when the bounded monitor log evicts
// events, the eviction count reaches the Result and its report.
func TestResultSurfacesLogDropped(t *testing.T) {
	c := cluster.New(cluster.Config{Seed: 1, LogLimit: 3})
	c.AddNodes(1)
	log := c.Log()
	for i := 0; i < 10; i++ {
		log.Recordf(vtime.Time(i), monitor.KindNotification, 0, "test", "event %d", i)
	}
	res := c.ResultNow()
	if res.LogDropped != 7 {
		t.Fatalf("LogDropped = %d, want 7 (10 events, limit 3)", res.LogDropped)
	}
	if !strings.Contains(res.String(), "7 events dropped") {
		t.Fatalf("report does not surface the eviction count:\n%s", res)
	}
}
