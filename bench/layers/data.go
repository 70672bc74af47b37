package layers

import (
	"fmt"
	"io"
	"time"

	"hades/internal/cluster"
	"hades/internal/dispatcher"
	"hades/internal/eventq"
	"hades/internal/heug"
	"hades/internal/membership"
	"hades/internal/pubsub"
	"hades/internal/replication"
	"hades/internal/scenario"
	"hades/internal/sched"
	"hades/internal/session"
	"hades/internal/shard"
	"hades/internal/vtime"
)

// knobs is the session discipline the data-plane workloads use.
var knobs = session.Params{MaxBatch: 8, FlushInterval: 500 * us, PipelineDepth: 4}

// repHarness is one replica group of three over a membership service,
// with a fourth node submitting.
type repHarness struct {
	platform
	g *replication.Group
}

func newRepHarness(style replication.Style, checkpointEvery int) repHarness {
	p := newPlatform(4, 53)
	mem, err := membership.New(p.eng, p.net, membership.Config{Name: "g", Nodes: p.nodes[:3]})
	if err != nil {
		panic(err)
	}
	g, err := replication.NewGroup(p.eng, p.net, mem, replication.Config{
		Name: "g", Replicas: p.nodes[:3], Style: style,
		WExec: 100 * us, CheckpointEvery: checkpointEvery, StorageLatency: 20 * us,
	}, nil)
	if err != nil {
		panic(err)
	}
	mem.Start()
	return repHarness{platform: p, g: g}
}

// submitRange schedules tagged submissions seq in [from, to) 200 virtual
// microseconds apart starting now, and runs until they have applied.
func (h repHarness) submitRange(from, to int) {
	start := h.eng.Now()
	for i := from; i < to; i++ {
		seq := uint64(i + 1)
		h.eng.At(start.Add(vtime.Duration(i-from)*200*us), eventq.ClassApp, func() {
			h.g.SubmitTagged(3, int64(seq), replication.ClientSeq{Client: 9, Seq: seq})
		})
	}
	h.eng.Run(start.Add(vtime.Duration(to-from)*200*us + 5*ms))
}

// replicationDriver times one replicated op per style, a batched round,
// and a passive checkpoint once the dedup table holds 10k entries (the
// per-checkpoint cost that grows with the run).
func replicationDriver(o out, scale float64, _ Inputs) error {
	n := scaled(2000, scale, 64)
	applied := func(h repHarness) int64 { return h.g.Machine(h.g.Primary()).Applied }
	for _, v := range []struct {
		metric string
		style  replication.Style
	}{
		{"replication.semi_active_op_ns", replication.SemiActive},
		{"replication.passive_op_ns", replication.Passive},
	} {
		var last repHarness
		c := timeIt(func() repHarness { return newRepHarness(v.style, 8) }, func(h repHarness) {
			h.submitRange(0, n)
			last = h
		})
		if got := applied(last); got != int64(n) {
			return fmt.Errorf("layers: %s: %d of %d ops applied", v.metric, got, n)
		}
		o[v.metric] = c.ns / float64(n)
		if v.style == replication.SemiActive {
			o["replication.op_allocs"] = c.allocs / float64(n)
		}
	}

	var last repHarness
	c := timeIt(func() repHarness { return newRepHarness(replication.SemiActive, 8) }, func(h repHarness) {
		for b := 0; b < n/8; b++ {
			items := make([]replication.BatchItem, 8)
			for i := range items {
				seq := uint64(b*8 + i + 1)
				items[i] = replication.BatchItem{Cmd: int64(seq), Tag: replication.ClientSeq{Client: 9, Seq: seq}}
			}
			h.eng.At(vtime.Time(vtime.Duration(b)*400*us), eventq.ClassApp, func() { h.g.SubmitBatch(3, items) })
		}
		h.eng.Run(vtime.Time(vtime.Duration(n/8)*400*us + 5*ms))
		last = h
	})
	if got := applied(last); got != int64(n/8*8) {
		return fmt.Errorf("layers: replication.batch8_op_ns: %d of %d ops applied", got, n/8*8)
	}
	o["replication.batch8_op_ns"] = c.ns / float64(n/8*8)

	// One harness, checkpointing every 64 ops so that filling the dedup
	// table stays cheap: 512 ops (8 checkpoints) on the empty table
	// against the same 512 ops once it holds the seen entries. The
	// difference is what the table's size adds to one checkpoint.
	seen := scaled(10_000, scale, 1024)
	const probe, every = 512, 64
	h := newRepHarness(replication.Passive, every)
	timed := func(from, to int) float64 {
		t0 := time.Now()
		h.submitRange(from, to)
		return float64(time.Since(t0).Nanoseconds())
	}
	early := timed(0, probe)
	h.submitRange(probe, seen)
	late := timed(seen, seen+probe)
	if got := applied(h); got != int64(seen+probe) {
		return fmt.Errorf("layers: replication checkpoint probe: %d of %d ops applied", got, seen+probe)
	}
	o["replication.checkpoint_ns_at_10k_seen"] = (late - early) / (probe / every)
	return nil
}

// sessionDriver times one item through the batcher (add, coalesce,
// emit, complete) and one retried call that lands on its first attempt.
func sessionDriver(o out, scale float64, _ Inputs) error {
	n := scaled(30_000, scale, 500)
	items := 0
	c := timeIt(func() platform { return newPlatform(1, 1) }, func(p platform) {
		var b *session.Batcher[int]
		b = session.NewBatcher[int](p.eng, knobs, "bench", 0, func(lane string, batch []int) {
			items += len(batch)
			p.eng.After(300*us, eventq.ClassApp, func() { b.Complete(lane) })
		})
		lanes := []string{"s0", "s1", "s2", "s3"}
		for i := 0; i < n; i++ {
			p.eng.At(vtime.Time(vtime.Duration(i)*20*us), eventq.ClassApp, func() { b.Add(lanes[i%4], i) })
		}
		p.eng.RunUntilIdle()
	})
	if items != 3*n {
		return fmt.Errorf("layers: session: batcher emitted %d of %d items", items, 3*n)
	}
	o["session.batcher_item_ns"] = c.ns / float64(n)

	c = timeIt(func() platform { return newPlatform(1, 1) }, func(p platform) {
		se := session.New(p.eng)
		for i := 0; i < n; i++ {
			var call *session.Call
			p.eng.At(vtime.Time(vtime.Duration(i)*20*us), eventq.ClassApp, func() {
				call = se.Go(session.Spec{Label: "bench", Timeout: 5 * ms, MaxRetries: 3,
					Send: func(int) { p.eng.After(300*us, eventq.ClassApp, func() { call.Finish() }) }})
			})
		}
		p.eng.RunUntilIdle()
		if se.Live() != 0 {
			panic("layers: session: calls left live")
		}
	})
	o["session.call_ns"] = c.ns / float64(n)
	return nil
}

// newCluster is the harness the data-plane layers above replication
// need: the public builder, observability at its defaults.
func newCluster(nodes int, seed int64) *cluster.Cluster {
	c := cluster.New(cluster.Config{Seed: seed, Costs: dispatcher.DefaultCostBook()})
	c.AddNodes(nodes)
	return c
}

// shardDriver times a ring lookup, and a keyed write from submission to
// ack through one client, one shard of two replicas.
func shardDriver(o out, scale float64, _ Inputs) error {
	n := scaled(2_000_000, scale, 10_000)
	keys := keyspace()
	sink := 0
	c := timeIt(func() *shard.Ring { return shard.NewRing(4, shard.DefaultVNodes) }, func(r *shard.Ring) {
		for i := 0; i < n; i++ {
			sink += r.Shard(keys[i&255])
		}
	})
	if sink < 0 {
		return fmt.Errorf("layers: shard: impossible ring sum")
	}
	o["shard.ring_lookup_ns"] = c.ns / float64(n)

	ops := scaled(4000, scale, 100)
	var cl *shard.Client
	c = timeIt(func() *cluster.Cluster {
		cc := newCluster(3, 61)
		cl = cc.ShardsWith(1, 2, cluster.ShardConfig{Session: knobs}).ClientAt(2)
		for i := 0; i < ops; i++ {
			key, cmd := keys[i&255], int64(i+1)
			cc.At(vtime.Time(vtime.Duration(i)*100*us), func() { cl.Submit(key, cmd) })
		}
		return cc
	}, func(cc *cluster.Cluster) { cc.Run(vtime.Duration(ops)*100*us + 20*ms) })
	if cl.Stats.Acked != ops {
		return fmt.Errorf("layers: shard: %d of %d writes acked", cl.Stats.Acked, ops)
	}
	o["shard.submit_ack_ns"] = c.ns / float64(ops)
	o["shard.submit_ack_allocs"] = c.allocs / float64(ops)
	return nil
}

// txnDriver times an uncontended two-shard transfer from begin to
// decision: two shards of two replicas, one client, group commit on.
func txnDriver(o out, scale float64, _ Inputs) error {
	n := scaled(500, scale, 50)
	committed, events := 0, uint64(0)
	c := timeIt(func() *cluster.Cluster {
		cc := newCluster(5, 67)
		set := cc.ShardsWith(2, 2, cluster.ShardConfig{Session: knobs, GroupCommit: knobs})
		tc := set.TxnClientAt(4)
		for i := 0; i < n; i++ {
			from, to := fmt.Sprintf("a%03d", i%256), fmt.Sprintf("a%03d", (i+1)%256)
			cc.At(vtime.Time(vtime.Duration(i)*4*ms), func() { tc.Transfer(from, to, 1) })
		}
		return cc
	}, func(cc *cluster.Cluster) {
		res := cc.Run(vtime.Duration(n)*4*ms + 50*ms)
		committed, events = res.TxnClients[0].Committed, cc.Engine().EventsFired()
	})
	if committed != n {
		return fmt.Errorf("layers: txn: %d of %d transfers committed", committed, n)
	}
	o["txn.transfer_ns"] = c.ns / float64(n)
	o["txn.transfer_allocs"] = c.allocs / float64(n)
	o["txn.events_per_txn"] = float64(events) / float64(n)
	return nil
}

// pubsubDriver times one published sample to three subscribers, on a
// reliable topic (through the owning shard's replicated machine) and on
// a best-effort one (flooded to the whole cluster).
func pubsubDriver(o out, scale float64, _ Inputs) error {
	n := scaled(400, scale, 50)
	for _, v := range []struct {
		metric string
		qos    pubsub.QoS
	}{
		{"pubsub.reliable_sample_ns", pubsub.QoS{Reliability: pubsub.Reliable}},
		{"pubsub.besteffort_sample_ns", pubsub.QoS{Reliability: pubsub.BestEffort}},
	} {
		delivered := 0
		c := timeIt(func() *cluster.Cluster {
			cc := newCluster(6, 71)
			set := cc.ShardsWith(1, 2, cluster.ShardConfig{})
			if _, err := set.Topic("t", v.qos); err != nil {
				panic(err)
			}
			pub, err := set.PublisherAt("t", 2)
			if err != nil {
				panic(err)
			}
			for node := 3; node < 6; node++ {
				if _, err := set.SubscriberAt("t", node); err != nil {
					panic(err)
				}
			}
			for i := 0; i < n; i++ {
				val := int64(i + 1)
				cc.At(vtime.Time(vtime.Duration(i)*2*ms), func() { pub.Publish(val) })
			}
			return cc
		}, func(cc *cluster.Cluster) {
			res := cc.Run(vtime.Duration(n)*2*ms + 50*ms)
			delivered = res.PubSub[0].Delivered
		})
		if delivered != 3*n {
			return fmt.Errorf("layers: %s: %d of %d deliveries", v.metric, delivered, 3*n)
		}
		o[v.metric] = c.ns / float64(n)
		if v.qos.Reliability == pubsub.Reliable {
			o["pubsub.delivery_allocs"] = c.allocs / float64(delivered)
		}
	}
	return nil
}

// dispatcherDriver times one task instance's whole lifecycle under the
// default cost book: activation, two Code_EUs with a precedence,
// completion.
func dispatcherDriver(o out, scale float64, _ Inputs) error {
	n := scaled(3000, scale, 100)
	task := heug.NewTask("bench", heug.AperiodicLaw()).
		WithDeadline(100*ms).
		Code("a", heug.CodeEU{Node: 0, WCET: 100 * us}).
		Code("b", heug.CodeEU{Node: 0, WCET: 100 * us}).
		Precede("a", "b").
		MustBuild()
	done := 0
	c := timeIt(func() *cluster.Cluster {
		cc := newCluster(1, 1)
		cc.NewApp("a", sched.NewRM(), nil).MustAddTask(task)
		for i := 0; i < n; i++ {
			cc.ActivateAt("bench", vtime.Time(vtime.Duration(i)*ms))
		}
		return cc
	}, func(cc *cluster.Cluster) { done = cc.Run(vtime.Duration(n) * ms).Stats.Completions })
	if done != n {
		return fmt.Errorf("layers: dispatcher: %d of %d instances completed", done, n)
	}
	o["dispatcher.instance_ns"] = c.ns / float64(n)
	o["dispatcher.instance_allocs"] = c.allocs / float64(n)
	return nil
}

// schedDriver times a virtual second of the paper's running example:
// three sporadic tasks sharing a resource under EDF+SRP on one node.
func schedDriver(o out, scale float64, _ Inputs) error {
	span := vtime.Duration(scaled(4000, scale, 100)) * ms
	misses := 0
	c := timeIt(func() *cluster.Cluster {
		cc := newCluster(1, 1)
		app := cc.NewApp("spuri", sched.NewEDF(20*us), sched.NewSRP())
		for _, st := range []heug.SpuriTask{
			{Name: "tau1", CBefore: 300 * us, CS: 200 * us, CAfter: 500 * us, Resource: "S", Deadline: 5 * ms, PseudoPeriod: 10 * ms},
			{Name: "tau2", CBefore: 800 * us, CS: 400 * us, CAfter: 800 * us, Resource: "S", Deadline: 12 * ms, PseudoPeriod: 20 * ms},
			{Name: "tau3", CBefore: 2000 * us, Deadline: 40 * ms, PseudoPeriod: 50 * ms},
		} {
			if err := app.SpawnSpuri(st); err != nil {
				panic(err)
			}
		}
		return cc
	}, func(cc *cluster.Cluster) { misses = cc.Run(span).Stats.DeadlineMisses })
	if misses != 0 {
		return fmt.Errorf("layers: sched: %d deadline misses in the feasible example", misses)
	}
	o["sched.edf_srp_ns_per_vs"] = c.ns / (float64(span) / float64(vtime.Second))
	return nil
}

// scenarioDriver times parsing and validating the full-size kv-steady
// file, and building its cluster (20k arrivals laid out).
func scenarioDriver(o out, scale float64, in Inputs) error {
	n := scaled(10, scale, 2)
	var spec scenario.Spec
	c := timePass(func() {
		for i := 0; i < n; i++ {
			var err error
			if spec, err = scenario.Load(in.Scenario); err != nil {
				panic(err)
			}
		}
	})
	o["scenario.load_ns"] = c.ns / float64(n)
	c = timePass(func() {
		for i := 0; i < n; i++ {
			if _, err := spec.Build(); err != nil {
				panic(err)
			}
		}
	})
	o["scenario.build_ns"] = c.ns / float64(n)
	return nil
}

// finishDriver times what follows a run, on a finished short kv-steady
// cluster: ResultNow, distilling the report, encoding it.
func finishDriver(o out, scale float64, in Inputs) error {
	spec, err := scenario.Load(in.Short)
	if err != nil {
		return err
	}
	cc, err := spec.Build()
	if err != nil {
		return err
	}
	res := cc.Run(spec.Horizon())
	n := scaled(10, scale, 2)
	c := timePass(func() {
		for i := 0; i < n; i++ {
			res = cc.ResultNow()
		}
	})
	o["cluster.result_ns"] = c.ns / float64(n)
	doc := res.Report(spec.Name, spec.Seed)
	c = timePass(func() {
		for i := 0; i < n; i++ {
			doc = res.Report(spec.Name, spec.Seed)
		}
	})
	o["report.build_ns"] = c.ns / float64(n)
	c = timePass(func() {
		for i := 0; i < n; i++ {
			if err := doc.WriteJSON(io.Discard); err != nil {
				panic(err)
			}
		}
	})
	o["report.encode_ns"] = c.ns / float64(n)
	return nil
}
