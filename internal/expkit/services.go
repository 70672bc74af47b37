package expkit

import (
	"fmt"

	"hades/internal/clocksync"
	"hades/internal/cluster"
	"hades/internal/consensus"
	"hades/internal/dispatcher"
	"hades/internal/eventq"
	"hades/internal/fault"
	"hades/internal/membership"
	"hades/internal/netsim"
	"hades/internal/rbcast"
	"hades/internal/replication"
	"hades/internal/simkern"
	"hades/internal/vtime"
)

// serviceRig builds an n-node platform for service experiments through
// the cluster layer: full mesh with the testbed delay bounds, a 2 µs
// context switch, an unbounded trace log.
func serviceRig(n int, seed int64) (*simkern.Engine, *netsim.Network, []int) {
	c := cluster.New(cluster.Config{Seed: seed, Costs: dispatcher.CostBook{SwitchCost: 2 * us}, LogLimit: -1})
	nodes := c.AddNodes(n)
	c.ConnectAll(100*us, 300*us)
	return c.Engine(), c.Network(), nodes
}

// runX3 reproduces the [LL88] clock synchronisation experiment:
// measured precision vs the analytic envelope, across group size,
// Byzantine-fault count and drift.
func runX3(opts Options) Table {
	tbl := Table{
		ID:      "X3",
		Title:   "[LL88] — fault-tolerant clock sync: precision vs bound (n >= 3f+1)",
		Columns: []string{"n", "f (byzantine)", "drift", "rounds", "precision", "bound", "holds"},
	}
	horizon := vtime.Duration(3) * vtime.Second
	if opts.Quick {
		horizon = vtime.Duration(1) * vtime.Second
	}
	cases := []struct {
		n, f  int
		drift float64
	}{
		{4, 0, 1e-5}, {4, 1, 1e-5}, {7, 2, 1e-5}, {10, 3, 1e-5},
		{7, 2, 1e-4}, {7, 2, 1e-6},
	}
	for _, c := range cases {
		eng, net, nodes := serviceRig(c.n, opts.Seed)
		cfg := clocksync.DefaultConfig(nodes, c.f)
		cfg.MaxDrift = c.drift
		svc, err := clocksync.New(eng, net, cfg)
		if err != nil {
			panic(err)
		}
		for i := 0; i < c.f; i++ {
			svc.MakeByzantine(nodes[i], clocksync.TwoFacedByzantine(vtime.Duration(10+i)*ms, eng.Rand()))
		}
		svc.Start()
		eng.Run(vtime.Time(horizon))
		p, b := svc.Precision(), svc.Bound()
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprint(c.n), fmt.Sprint(c.f), fmt.Sprintf("%.0e", c.drift),
			fmt.Sprint(svc.Rounds()), p.String(), b.String(), fmt.Sprint(p <= b),
		})
	}
	tbl.Notes = append(tbl.Notes,
		"precision = max logical-clock skew between correct nodes after convergence",
		"bound = 4*eps + 4*rho*P (fault-tolerant midpoint envelope); Byzantine clocks are two-faced")
	return tbl
}

// runX4 reproduces the time-bounded reliable broadcast experiment:
// delivery latency Delta = (f+1)*R and agreement under f send-omission
// faulty processes.
func runX4(opts Options) Table {
	tbl := Table{
		ID:      "X4",
		Title:   "Rel. Bcast — time-bounded reliable broadcast: latency and agreement vs f",
		Columns: []string{"n", "f", "Delta (bound)", "broadcasts", "agreement", "timeliness"},
	}
	n := 7
	rounds := 20
	if opts.Quick {
		rounds = 5
	}
	for f := 0; f <= 3; f++ {
		eng, net, nodes := serviceRig(n, opts.Seed)
		svc := rbcast.New(eng, net, "x4", rbcast.DefaultConfig(net, nodes, f))
		// f fully send-omission-faulty processes (non-origin).
		faulty := map[int]bool{}
		for i := 0; i < f; i++ {
			faulty[nodes[n-1-i]] = true
		}
		net.SetFault(&fault.OmissionFrom{Nodes: faulty, Port: "rbcast.x4"})
		agreement, timeliness := true, true
		for k := 0; k < rounds; k++ {
			seq, promised := svc.Broadcast(0, k)
			eng.RunUntilIdle()
			delivered := svc.DeliveredAt(0, seq)
			correct := 0
			for _, node := range delivered {
				if !faulty[node] {
					correct++
				}
			}
			if correct != n-f {
				agreement = false
			}
			for _, d := range svc.Deliveries {
				if d.Seq == seq && d.At != promised {
					timeliness = false
				}
			}
		}
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprint(n), fmt.Sprint(f), svc.Delta().String(), fmt.Sprint(rounds),
			fmt.Sprint(agreement), fmt.Sprint(timeliness),
		})
	}
	tbl.Notes = append(tbl.Notes,
		"Delta grows linearly in f ((f+1) flooding rounds) — the latency/resilience trade",
		"delivery happens at the promised fixed instant: the bound can enter a feasibility test")
	return tbl
}

// runX5 reproduces the [Pol96] replication-style comparison: failover
// latency, lost work and CPU cost for passive, semi-active and active
// replication under a primary crash.
func runX5(opts Options) Table {
	tbl := Table{
		ID:      "X5",
		Title:   "[Pol96] — replication styles under a primary crash at t=25ms",
		Columns: []string{"style", "failover latency", "lost work", "replies", "replica CPU"},
	}
	for _, style := range []replication.Style{replication.Passive, replication.SemiActive, replication.Active} {
		eng, net, nodes := serviceRig(4, opts.Seed)
		mem, err := membership.New(eng, net, membership.Config{Name: "x5", Nodes: nodes[:3]})
		if err != nil {
			panic(err)
		}
		var replies int
		g, err := replication.NewGroup(eng, net, mem, replication.Config{
			Name:            "svc",
			Replicas:        nodes[:3],
			Style:           style,
			WExec:           200 * us,
			CheckpointEvery: 5,
			StorageLatency:  20 * us,
		}, func(uint64, int64, bool) { replies++ })
		if err != nil {
			panic(err)
		}
		mem.Start()

		// Crash mid-checkpoint-interval so passive replication shows
		// its characteristic lost work (checkpoints land every 5
		// requests ≈ every 5 ms here).
		crashAt := vtime.Time(23*ms + 300*us)
		requests := 60
		if opts.Quick {
			crashAt = vtime.Time(13*ms + 300*us)
			requests = 20
		}
		fault.CrashAt(eng, net, 0, crashAt, 0)
		for i := 0; i < requests; i++ {
			cmd := int64(i + 1)
			eng.At(vtime.Time(vtime.Duration(i)*ms), eventq.ClassApp, func() { g.Submit(3, cmd) })
		}
		eng.Run(vtime.Time(500 * ms))

		var busy vtime.Duration
		for _, p := range eng.Processors()[:3] {
			busy += p.BusyTime()
		}
		latency, lost := "-", "-"
		if len(g.Failovers) > 0 {
			latency = g.Failovers[0].At.Sub(crashAt).String()
			lost = fmt.Sprint(g.LostWork)
		} else if style == replication.Active {
			latency, lost = "0 (masking)", "0"
		}
		tbl.Rows = append(tbl.Rows, []string{
			style.String(), latency, lost, fmt.Sprint(replies), busy.String(),
		})
	}
	tbl.Notes = append(tbl.Notes,
		"passive loses work since the last checkpoint; semi-active loses none; active masks the crash outright",
		"the CPU column shows the price: active≈semi-active burn every replica, passive only the primary")
	return tbl
}

// runX7 reproduces the consensus service experiment: round count and
// decision latency vs the tolerated fault count, with a real crash.
func runX7(opts Options) Table {
	tbl := Table{
		ID:      "X7",
		Title:   "Consensus (FloodSet) — rounds and decision bound vs f, with one crash",
		Columns: []string{"n", "f", "rounds", "bound", "decided", "agreement"},
	}
	n := 5
	for f := 1; f <= 3; f++ {
		eng, net, nodes := serviceRig(n, opts.Seed)
		cfg := consensus.DefaultConfig(net, nodes, f)
		c := consensus.New(eng, net, "x7", cfg, nil)
		fault.CrashAt(eng, net, 0, vtime.Time(30*us), 0)
		props := map[int]int64{}
		for i, node := range nodes {
			props[node] = int64(100 - i)
		}
		c.Propose(props)
		eng.RunUntilIdle()
		ds := c.Decisions()
		agreement := true
		var first int64 = -1
		rounds := 0
		for _, r := range ds {
			if first == -1 {
				first = r.Decision
			} else if r.Decision != first {
				agreement = false
			}
			rounds = r.Rounds
		}
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprint(n), fmt.Sprint(f), fmt.Sprint(rounds), c.Bound().String(),
			fmt.Sprintf("%d/%d", len(ds), n-1), fmt.Sprint(agreement),
		})
	}
	tbl.Notes = append(tbl.Notes,
		"f+1 rounds, decision at a fixed bound — time-bounded like every HADES service",
		"node 0 crashes mid-round 1; survivors still agree (FloodSet under crash faults)")
	return tbl
}
