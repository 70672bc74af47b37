// Package hades_test holds the top-level benchmark harness: one
// benchmark per reproduced table/figure (see DESIGN.md §4 and
// EXPERIMENTS.md). Each benchmark runs the corresponding experiment's
// workload end to end; custom metrics report the domain quantity the
// paper cares about (virtual-time responses, admission ratios) next to
// the usual ns/op.
package hades_test

import (
	"fmt"
	"math/rand"
	"os"
	"testing"

	"hades/internal/clocksync"
	"hades/internal/cluster"
	"hades/internal/consensus"
	"hades/internal/dispatcher"
	"hades/internal/eventq"
	"hades/internal/expkit"
	"hades/internal/fault"
	"hades/internal/feasibility"
	"hades/internal/heug"
	"hades/internal/membership"
	"hades/internal/monitor"
	"hades/internal/netsim"
	"hades/internal/rbcast"
	"hades/internal/replication"
	"hades/internal/sched"
	"hades/internal/session"
	"hades/internal/simkern"
	"hades/internal/vtime"
)

const (
	us = vtime.Microsecond
	ms = vtime.Millisecond
)

// BenchmarkFigure2EDFTrace regenerates the Figure 2 cooperation trace
// (experiment E-F2): two activations, scheduler preemptions, priority
// changes, completion.
func BenchmarkFigure2EDFTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, _ := expkit.Figure2Trace(1)
		if rep.Stats.DeadlineMisses != 0 {
			b.Fatal("missed deadline in Figure 2 scenario")
		}
	}
}

// BenchmarkFigure3Translation regenerates the Figure 3 Spuri→HEUG
// translation (E-F3).
func BenchmarkFigure3Translation(b *testing.B) {
	st := heug.SpuriTask{
		Name: "tau", CBefore: 2 * ms, CS: 1 * ms, CAfter: 1500 * us,
		Resource: "S", Deadline: 20 * ms, PseudoPeriod: 25 * ms, Blocking: 3 * ms,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := st.ToHEUG(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDispatcherCosts measures the host-side cost of one complete
// task-instance lifecycle under the full §4.1 cost book — the real
// "worst-case scenario benchmark" of our dispatcher implementation
// (E-T1).
func BenchmarkDispatcherCosts(b *testing.B) {
	task := heug.NewTask("bench", heug.AperiodicLaw()).
		WithDeadline(100*ms).
		Code("a", heug.CodeEU{Node: 0, WCET: 100 * us}).
		Code("b", heug.CodeEU{Node: 0, WCET: 100 * us}).
		Precede("a", "b").
		MustBuild()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys := cluster.New(cluster.Config{Seed: 1, Costs: dispatcher.DefaultCostBook(), LogLimit: 1})
		app := sys.NewApp("a", sched.NewRM(), nil)
		if err := app.AddTask(task); err != nil {
			b.Fatal(err)
		}
		app.Seal()
		sys.ActivateAt("bench", 0)
		if rep := sys.Run(10 * ms); rep.Stats.Completions != 1 {
			b.Fatal("instance did not complete")
		}
	}
}

// BenchmarkKernelActivities runs the E-T2 loaded scenario: clock ticks
// plus message-driven ATM interrupts over 100 ms of virtual time.
func BenchmarkKernelActivities(b *testing.B) {
	task := heug.NewTask("ship", heug.PeriodicEvery(2*ms)).
		WithDeadline(2*ms).
		Code("a", heug.CodeEU{Node: 1, WCET: 50 * us}).
		Code("b", heug.CodeEU{Node: 0, WCET: 50 * us}).
		Precede("a", "b").
		MustBuild()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys := cluster.New(cluster.Config{Seed: 1, Costs: dispatcher.DefaultCostBook(), LogLimit: 1})
		sys.AddNodes(2)
		app := sys.NewApp("l", sched.NewRM(), nil)
		if err := app.AddTask(task); err != nil {
			b.Fatal(err)
		}
		app.Seal()
		if err := sys.StartPeriodic("ship"); err != nil {
			b.Fatal(err)
		}
		sys.Run(100 * ms)
	}
}

// BenchmarkFeasibilityEDFSRP measures the §5.3 cost-integrated EDF+SRP
// test (E-S5's analysis side) on random 8-task sets.
func BenchmarkFeasibilityEDFSRP(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ov := &feasibility.Overheads{Book: dispatcher.DefaultCostBook(), SchedCost: 20 * us}
	sets := make([][]feasibility.Task, 64)
	for i := range sets {
		sets[i] = feasibility.Generate(rng, feasibility.DefaultGenConfig(8, 0.8))
	}
	b.ResetTimer()
	admitted := 0
	for i := 0; i < b.N; i++ {
		if feasibility.EDFSpuri(sets[i%len(sets)], ov).Feasible {
			admitted++
		}
	}
	b.ReportMetric(float64(admitted)/float64(b.N), "admit-ratio")
}

// BenchmarkEDFSRPSimulation measures the E-S5 validation side: one full
// costed simulation of a 5-task set over 500 ms of virtual time.
func BenchmarkEDFSRPSimulation(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	tasks := feasibility.Generate(rng, feasibility.DefaultGenConfig(5, 0.6))
	book := dispatcher.DefaultCostBook()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := expkit.SimulateEDFSRP(tasks, book, 500*ms, 1)
		if rep.Stats.Activations == 0 {
			b.Fatal("no activations")
		}
	}
}

// BenchmarkSchedulabilitySweep is E-X1's inner loop: LL bound + exact
// RTA + EDF demand on one random implicit-deadline set.
func BenchmarkSchedulabilitySweep(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	cfg := feasibility.DefaultGenConfig(6, 0.85)
	cfg.DeadlineFactor = 1.0
	cfg.ResourceProb = 0
	sets := make([][]feasibility.Task, 64)
	for i := range sets {
		sets[i] = feasibility.Generate(rng, cfg)
		for j := range sets[i] {
			sets[i][j].D = sets[i][j].T
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tasks := sets[i%len(sets)]
		feasibility.LiuLayland(tasks)
		feasibility.ResponseTime(tasks, feasibility.RateMonotonic, nil)
		feasibility.EDFSpuri(tasks, nil)
	}
}

// BenchmarkResourceProtocols runs the E-X2 inversion workload under
// SRP (the paper's preferred protocol) for 150 ms of virtual time.
func BenchmarkResourceProtocols(b *testing.B) {
	for _, pol := range []struct {
		name string
		mk   func() dispatcher.ResourcePolicy
	}{
		{"SRP", func() dispatcher.ResourcePolicy { return sched.NewSRP() }},
		{"PCP", func() dispatcher.ResourcePolicy { return sched.NewPCP() }},
	} {
		b.Run(pol.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runInversion(b, pol.mk())
			}
		})
	}
}

func runInversion(b *testing.B, policy dispatcher.ResourcePolicy) {
	b.Helper()
	sys := cluster.New(cluster.Config{Seed: 1, LogLimit: 1})
	app := sys.NewApp("inv", sched.NewDM(), policy)
	app.MustAddTask(heug.NewTask("low", heug.SporadicEvery(50*ms)).
		WithDeadline(45*ms).
		Code("cs", heug.CodeEU{Node: 0, WCET: 8 * ms,
			Resources: []heug.ResourceReq{{Resource: "R", Mode: heug.Exclusive}}}).
		MustBuild())
	app.MustAddTask(heug.NewTask("mid", heug.SporadicEvery(50*ms)).
		WithDeadline(40*ms).
		Code("w", heug.CodeEU{Node: 0, WCET: 15 * ms}).
		MustBuild())
	app.MustAddTask(heug.NewTask("high", heug.SporadicEvery(50*ms)).
		WithDeadline(20*ms).
		Code("u", heug.CodeEU{Node: 0, WCET: 1 * ms,
			Resources: []heug.ResourceReq{{Resource: "R", Mode: heug.Exclusive}}}).
		MustBuild())
	app.Seal()
	_ = sys.StartSporadicWorstCase("low")
	_ = sys.StartSporadicWorstCase("mid")
	_ = sys.StartSporadicWorstCase("high")
	sys.Run(150 * ms)
}

// BenchmarkClockSync runs one second of [LL88] synchronisation with
// n=7, f=2 Byzantine clocks (E-X3), reporting achieved precision.
func BenchmarkClockSync(b *testing.B) {
	var lastPrecision vtime.Duration
	for i := 0; i < b.N; i++ {
		eng := simkern.NewEngine(monitor.NewLog(1), 17)
		nodes := make([]int, 7)
		for j := range nodes {
			eng.AddProcessor("n", 0)
			nodes[j] = j
		}
		net := netsim.New(eng, netsim.Config{WAtm: 5 * us, WProto: 5 * us, PrioNet: simkern.PrioMax - 2})
		net.ConnectAll(nodes, 100*us, 200*us)
		svc, err := clocksync.New(eng, net, clocksync.DefaultConfig(nodes, 2))
		if err != nil {
			b.Fatal(err)
		}
		svc.MakeByzantine(0, clocksync.TwoFacedByzantine(10*ms, eng.Rand()))
		svc.MakeByzantine(3, clocksync.TwoFacedByzantine(20*ms, eng.Rand()))
		svc.Start()
		eng.Run(vtime.Time(vtime.Second))
		lastPrecision = svc.Precision()
		if lastPrecision > svc.Bound() {
			b.Fatal("precision bound violated")
		}
	}
	b.ReportMetric(lastPrecision.Micros(), "precision-us")
}

// BenchmarkReliableBroadcast floods one message through a 7-node group
// tolerating f=2 omission-faulty processes (E-X4).
func BenchmarkReliableBroadcast(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := simkern.NewEngine(monitor.NewLog(1), 23)
		nodes := make([]int, 7)
		for j := range nodes {
			eng.AddProcessor("n", 0)
			nodes[j] = j
		}
		net := netsim.New(eng, netsim.Config{WAtm: 10 * us, WProto: 10 * us, PrioNet: simkern.PrioMax - 2})
		net.ConnectAll(nodes, 50*us, 150*us)
		svc := rbcast.New(eng, net, "b", rbcast.DefaultConfig(net, nodes, 2))
		net.SetFault(&fault.OmissionFrom{Nodes: map[int]bool{5: true, 6: true}, Port: "rbcast.b"})
		seq, _ := svc.Broadcast(0, i)
		eng.RunUntilIdle()
		if got := len(svc.DeliveredAt(0, seq)); got != 7 {
			b.Fatalf("delivered to %d/7", got)
		}
	}
}

// BenchmarkReplicationFailover crashes a passive primary and measures
// promotion (E-X5).
func BenchmarkReplicationFailover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := simkern.NewEngine(monitor.NewLog(1), 53)
		nodes := make([]int, 4)
		for j := range nodes {
			eng.AddProcessor("n", 0)
			nodes[j] = j
		}
		net := netsim.New(eng, netsim.Config{WAtm: 5 * us, WProto: 5 * us, PrioNet: simkern.PrioMax - 2})
		net.ConnectAll(nodes, 50*us, 150*us)
		mem, err := membership.New(eng, net, membership.Config{Name: "g", Nodes: nodes[:3]})
		if err != nil {
			b.Fatal(err)
		}
		g, err := replication.NewGroup(eng, net, mem, replication.Config{
			Name: "g", Replicas: nodes[:3], Style: replication.Passive,
			WExec: 100 * us, CheckpointEvery: 5, StorageLatency: 20 * us,
		}, nil)
		if err != nil {
			b.Fatal(err)
		}
		mem.Start()
		fault.CrashAt(eng, net, 0, vtime.Time(13*ms+300*us), 0)
		for k := 0; k < 30; k++ {
			cmd := int64(k + 1)
			eng.At(vtime.Time(vtime.Duration(k)*ms), eventq.ClassApp, func() { g.Submit(3, cmd) })
		}
		eng.Run(vtime.Time(200 * ms))
		if len(g.Failovers) != 1 {
			b.Fatal("no failover")
		}
	}
}

// BenchmarkPessimism compares precise vs crude admission (E-X6).
func BenchmarkPessimism(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	precise := &feasibility.Overheads{Book: dispatcher.DefaultCostBook(), SchedCost: 20 * us}
	crude := &feasibility.Overheads{Book: dispatcher.DefaultCostBook().Scale(10), SchedCost: 200 * us}
	sets := make([][]feasibility.Task, 64)
	for i := range sets {
		sets[i] = feasibility.Generate(rng, feasibility.DefaultGenConfig(5, 0.7))
	}
	b.ResetTimer()
	lost := 0
	for i := 0; i < b.N; i++ {
		tasks := sets[i%len(sets)]
		p := feasibility.EDFSpuri(tasks, precise).Feasible
		c := feasibility.EDFSpuri(tasks, crude).Feasible
		if p && !c {
			lost++
		}
	}
	b.ReportMetric(float64(lost)/float64(b.N), "lost-ratio")
}

// BenchmarkConsensus runs 5-node FloodSet with f=2 and one crash (E-X7).
func BenchmarkConsensus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := simkern.NewEngine(monitor.NewLog(1), 31)
		nodes := make([]int, 5)
		for j := range nodes {
			eng.AddProcessor("n", 0)
			nodes[j] = j
		}
		net := netsim.New(eng, netsim.Config{WAtm: 10 * us, WProto: 10 * us, PrioNet: simkern.PrioMax - 2})
		net.ConnectAll(nodes, 50*us, 150*us)
		c := consensus.New(eng, net, "b", consensus.DefaultConfig(net, nodes, 2), nil)
		fault.CrashAt(eng, net, 0, vtime.Time(30*us), 0)
		c.Propose(map[int]int64{0: 5, 1: 4, 2: 3, 3: 2, 4: 1})
		eng.RunUntilIdle()
		if len(c.Decisions()) != 4 {
			b.Fatal("survivors did not decide")
		}
	}
}

// highFanoutSession is the session discipline of the high-fanout
// benchmarks: batched and pipelined. (What batching buys over one op
// per round is recorded by the benchmark's replication.batch8_op_ns
// against semi_active_op_ns rows — see bench/.)
func highFanoutSession() session.Params {
	return session.Params{MaxBatch: 8, FlushInterval: 500 * us, PipelineDepth: 4}
}

// benchTrace picks the tracing configuration for the high-fanout
// benchmarks: HADES_TRACE=off disables the tracer entirely, zero/one
// pin the sample rate for A/B runs, and anything else leaves the
// cluster default (sample 10%). The CI overhead gate lives in
// observability_overhead_test.go — cross-process benchmark diffs cannot
// resolve single-digit percentages.
func benchTrace() *cluster.TraceParams {
	switch os.Getenv("HADES_TRACE") {
	case "off":
		return &cluster.TraceParams{Disabled: true}
	case "zero":
		return &cluster.TraceParams{SampleRate: 0}
	case "one":
		return &cluster.TraceParams{SampleRate: 1}
	}
	return nil
}

// highFanoutKeys spreads the keyed workload wide enough that every
// burst has several ops per shard to coalesce.
var highFanoutKeys = func() []string {
	keys := make([]string, 32)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%02d", i)
	}
	return keys
}()

// BenchmarkHighFanoutKV is the batching/pipelining workload: one
// client bursting 32 keys per millisecond over a 4-shard plane — the
// shape where per-op wire messages and replication rounds dominate.
func BenchmarkHighFanoutKV(b *testing.B) {
	params := highFanoutSession()
	for i := 0; i < b.N; i++ {
		c := cluster.New(cluster.Config{Seed: 61, Trace: benchTrace()})
		c.AddNodes(9) // 4 shards × 2 replicas + client
		c.ConnectAll(100*us, 300*us)
		set := c.ShardsWith(4, 2, cluster.ShardConfig{Session: params})
		cl := set.ClientAt(8)
		n := 0
		for t := vtime.Duration(0); t < 100*ms; t += 2 * ms {
			for _, k := range highFanoutKeys {
				key := k
				n++
				cmd := int64(n)
				c.At(vtime.Time(t), func() { cl.Submit(key, cmd) })
			}
		}
		// The run drains soon after the 100 ms burst window and
		// fast-forwards the idle tail of the horizon.
		c.Run(600 * ms)
		if cl.Stats.Acked != cl.Stats.Submitted {
			b.Fatalf("acked %d of %d", cl.Stats.Acked, cl.Stats.Submitted)
		}
		if err := set.Check(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHighFanoutTxn is the group-commit workload: four
// transaction clients driving concurrent transfers over a 4-shard
// plane, so coordinator COMMIT/ABORT records pile up inside the flush
// window and one replicated round carries many of them.
func BenchmarkHighFanoutTxn(b *testing.B) {
	params := highFanoutSession()
	for i := 0; i < b.N; i++ {
		c := cluster.New(cluster.Config{Seed: 67, Trace: benchTrace()})
		c.AddNodes(12) // 4 shards × 2 replicas + 4 txn clients
		c.ConnectAll(100*us, 300*us)
		set := c.ShardsWith(4, 2, cluster.ShardConfig{Session: params, GroupCommit: params})
		plane := set.TxnPlane()
		committed := 0
		for cn := 0; cn < 4; cn++ {
			tc := set.TxnClientAt(8 + cn)
			n := cn
			for t := vtime.Duration(0); t < 100*ms; t += 2 * ms {
				at := t
				c.At(vtime.Time(at), func() {
					src := highFanoutKeys[n%len(highFanoutKeys)]
					dst := highFanoutKeys[(n+5)%len(highFanoutKeys)]
					n += 9
					tc.Transfer(src, dst, 1)
				})
			}
			_ = tc
		}
		c.Run(200 * ms)
		for _, tc := range plane.Clients() {
			committed += tc.Stats.Committed
		}
		if committed == 0 {
			b.Fatal("no transaction committed")
		}
		if err := set.CheckTxns(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulationThroughput measures raw engine throughput on the
// F1 architecture workload, reporting virtual events per host-second.
func BenchmarkSimulationThroughput(b *testing.B) {
	var events uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys := cluster.New(cluster.Config{Seed: 1, Costs: dispatcher.DefaultCostBook(), LogLimit: 1})
		sys.AddNodes(3)
		app := sys.NewApp("t", sched.NewEDF(20*us), sched.NewSRP())
		for j, p := range []vtime.Duration{5 * ms, 7 * ms, 11 * ms, 13 * ms} {
			st := heug.SpuriTask{
				Name: "t" + string(rune('a'+j)), Node: j % 3,
				CBefore: 300 * us, CS: 100 * us, CAfter: 200 * us,
				Resource: "S", Deadline: p, PseudoPeriod: p,
			}
			if err := app.AddSpuri(st); err != nil {
				b.Fatal(err)
			}
		}
		app.Seal()
		for _, n := range []string{"ta", "tb", "tc", "td"} {
			if err := sys.StartSporadicWorstCase(n); err != nil {
				b.Fatal(err)
			}
		}
		sys.Run(200 * ms)
		// Includes the 40 metrics-scrape ticks Cluster.Run arms (1% of
		// the total): the plane is on in every real run.
		events = sys.Engine().EventsFired()
	}
	b.ReportMetric(float64(events), "events/run")
}
