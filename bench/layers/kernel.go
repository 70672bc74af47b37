package layers

import (
	"fmt"
	"time"

	"hades/internal/consensus"
	"hades/internal/eventq"
	"hades/internal/fault"
	"hades/internal/load"
	"hades/internal/membership"
	"hades/internal/metrics"
	"hades/internal/monitor"
	"hades/internal/netsim"
	"hades/internal/rbcast"
	"hades/internal/simkern"
	"hades/internal/storage"
	"hades/internal/trace"
	"hades/internal/vtime"
)

// eventqDriver times the queue alone: a push and a pop at a standing
// depth of 4096 (what the data-plane workloads hold), and a cancel
// including the lazy compaction it triggers.
func eventqDriver(o out, scale float64, _ Inputs) error {
	n := scaled(150_000, scale, 1000)
	const depth = 4096
	fill := func() *eventq.Queue {
		q := &eventq.Queue{}
		for i := 0; i < depth; i++ {
			q.Push(vtime.Time(i*7919%depth), eventq.ClassApp, nil)
		}
		return q
	}
	c := timeIt(fill, func(q *eventq.Queue) {
		for i := 0; i < n; i++ {
			ev := q.Pop()
			q.Push(ev.At+vtime.Time(1+i*7919%depth), eventq.ClassApp, nil)
		}
	})
	o["eventq.push_pop_ns"] = c.ns / float64(n)

	evs := make([]*eventq.Event, n)
	c = timeIt(func() *eventq.Queue {
		q := &eventq.Queue{}
		for i := range evs {
			evs[i] = q.Push(vtime.Time(i*7919%n), eventq.ClassApp, nil)
		}
		return q
	}, func(q *eventq.Queue) {
		for _, ev := range evs {
			q.Cancel(ev)
		}
	})
	o["eventq.cancel_ns"] = c.ns / float64(n)
	return nil
}

// simkernDriver times the engine loop on a self-rescheduling event, and
// a context switch on two threads that trade priorities.
func simkernDriver(o out, scale float64, _ Inputs) error {
	n := scaled(300_000, scale, 1000)
	c := timeIt(func() *simkern.Engine { return simkern.NewEngine(nil, 1) }, func(eng *simkern.Engine) {
		left := n
		var tick func()
		tick = func() {
			if left--; left > 0 {
				eng.After(us, eventq.ClassApp, tick)
			}
		}
		eng.After(us, eventq.ClassApp, tick)
		eng.RunUntilIdle()
	})
	o["simkern.event_ns"] = c.ns / float64(n)

	swaps := scaled(50_000, scale, 200)
	var proc *simkern.Processor
	c = timeIt(func() *simkern.Engine {
		eng := simkern.NewEngine(nil, 1)
		proc = eng.AddProcessor("n0", 2*us)
		work := vtime.Duration(swaps+10) * 5 * us
		a := proc.NewThread("a", 5).AddSegment(simkern.Segment{Work: work})
		b := proc.NewThread("b", 4).AddSegment(simkern.Segment{Work: work})
		a.Ready()
		b.Ready()
		for k := 0; k < swaps; k++ {
			hi, lo := a, b
			if k%2 == 1 {
				hi, lo = b, a
			}
			eng.At(vtime.Time(vtime.Duration(k+1)*5*us), eventq.ClassKernel, func() {
				hi.SetPriority(9)
				lo.SetPriority(1)
			})
		}
		return eng
	}, func(eng *simkern.Engine) { eng.Run(vtime.Time(vtime.Duration(swaps+1) * 5 * us)) })
	if proc.Switches() < swaps/2 {
		return fmt.Errorf("layers: simkern: %d context switches for %d priority swaps", proc.Switches(), swaps)
	}
	o["simkern.thread_switch_ns"] = c.ns / float64(proc.Switches())
	return nil
}

// netsimDriver times one point-to-point message: send, link delay,
// interrupt, protocol task, handler.
func netsimDriver(o out, scale float64, _ Inputs) error {
	n := scaled(20_000, scale, 200)
	got := 0
	c := timeIt(func() platform {
		p := newPlatform(2, 1)
		p.net.Bind(1, "bench", func(*netsim.Message) { got++ })
		return p
	}, func(p platform) {
		for i := 0; i < n; i++ {
			if _, err := p.net.Send(0, 1, "bench", i, 8); err != nil {
				panic(err)
			}
			p.eng.RunUntilIdle()
		}
	})
	if got != 3*n {
		return fmt.Errorf("layers: netsim: %d of %d messages delivered", got, 3*n)
	}
	o["netsim.msg_ns"] = c.ns / float64(n)
	o["netsim.msg_allocs"] = c.allocs / float64(n)
	return nil
}

// rbcastDriver floods broadcasts through a 7-node group tolerating two
// omission failures.
func rbcastDriver(o out, scale float64, _ Inputs) error {
	n := scaled(300, scale, 20)
	var sent int
	c := timeIt(func() platform { return newPlatform(7, 23) }, func(p platform) {
		svc := rbcast.New(p.eng, p.net, "b", rbcast.DefaultConfig(p.net, p.nodes, 2))
		for i := 0; i < n; i++ {
			seq, _ := svc.Broadcast(i%7, i)
			p.eng.RunUntilIdle()
			if got := len(svc.DeliveredAt(i%7, seq)); got != 7 {
				panic(fmt.Sprintf("layers: rbcast: delivered to %d/7", got))
			}
		}
		sent = p.net.Stats().Sent
	})
	o["rbcast.bcast_ns"] = c.ns / float64(n)
	o["rbcast.msgs_per_bcast"] = float64(sent) / float64(n)
	return nil
}

// consensusDriver runs 5-node FloodSet instances tolerating two
// failures, one after another on one platform.
func consensusDriver(o out, scale float64, _ Inputs) error {
	n := scaled(150, scale, 10)
	c := timeIt(func() platform { return newPlatform(5, 31) }, func(p platform) {
		cfg := consensus.DefaultConfig(p.net, p.nodes, 2)
		for i := 0; i < n; i++ {
			inst := consensus.New(p.eng, p.net, fmt.Sprintf("c%d", i), cfg, nil)
			inst.Propose(map[int]int64{0: 5, 1: 4, 2: 3, 3: 2, 4: 1})
			p.eng.RunUntilIdle()
			if len(inst.Decisions()) != 5 {
				panic("layers: consensus: not every node decided")
			}
		}
	})
	o["consensus.round_ns"] = c.ns / float64(n)
	return nil
}

// detectorDriver counts what an idle heartbeat detector costs the
// engine: events per monitored node per virtual second, 8 nodes.
func detectorDriver(o out, scale float64, _ Inputs) error {
	span := vtime.Duration(scaled(2000, scale, 100)) * ms
	p := newPlatform(8, 7)
	fault.NewDetector(p.eng, p.net, fault.DefaultDetectorConfig(p.nodes), nil).Start()
	p.eng.Run(vtime.Time(span))
	o["fault.detector_events_per_node_vs"] = float64(p.eng.EventsFired()) / 8 / (float64(span) / float64(vtime.Second))
	return nil
}

// membershipDriver times an agreed view change. A 3-member group's
// first member crashes and rejoins cycle after cycle; only the 20 ms
// windows in which the removal view and the rejoin view are agreed and
// installed are timed, and the same windows of a run with no fault are
// the idle baseline subtracted.
func membershipDriver(o out, scale float64, _ Inputs) error {
	cycles := scaled(40, scale, 4)
	const cycle, window = 200 * ms, 20 * ms
	span := vtime.Time(vtime.Duration(cycles) * cycle)
	pass := func(churn bool) (ns float64, changes int, events uint64) {
		p := newPlatform(4, 53)
		svc, err := membership.New(p.eng, p.net, membership.Config{Name: "g", Nodes: p.nodes[:3]})
		if err != nil {
			panic(err)
		}
		svc.Start()
		for k := 0; k < cycles; k++ {
			crash := vtime.Time(vtime.Duration(k)*cycle + 20*ms)
			rejoin := crash.Add(80 * ms)
			if churn {
				fault.CrashAt(p.eng, p.net, 0, crash, rejoin)
			}
			for _, at := range []vtime.Time{crash, rejoin} {
				p.eng.Run(at)
				t0 := time.Now()
				p.eng.Run(at.Add(window))
				ns += float64(time.Since(t0).Nanoseconds())
			}
		}
		p.eng.Run(span)
		return ns, len(svc.AgreedViews()) - 1, p.eng.EventsFired()
	}
	idle, _, idleEvents := pass(false)
	churn, changes, _ := pass(true)
	if changes < 2*cycles {
		return fmt.Errorf("layers: membership: %d view changes over %d crash/rejoin cycles", changes, cycles)
	}
	o["membership.view_change_ns"] = (churn - idle) / float64(changes)
	o["membership.idle_events_per_vs"] = float64(idleEvents) / (float64(span) / float64(vtime.Second))
	return nil
}

// storageDriver times one durable two-copy write.
func storageDriver(o out, scale float64, _ Inputs) error {
	n := scaled(20_000, scale, 100)
	c := timeIt(func() *simkern.Engine {
		eng := simkern.NewEngine(monitor.NewLog(1), 1)
		eng.AddProcessor("n0", 0)
		return eng
	}, func(eng *simkern.Engine) {
		st := storage.New(eng, 0, 20*us)
		for i := 0; i < n; i++ {
			st.Write("state", int64(i), func(err error) {
				if err != nil {
					panic(err)
				}
			})
			eng.RunUntilIdle()
		}
	})
	o["storage.write_ns"] = c.ns / float64(n)
	return nil
}

// traceDriver times one op's causal trace at the default sample rate
// (five spans, the kv.write shape) and one histogram record.
func traceDriver(o out, scale float64, _ Inputs) error {
	n := scaled(200_000, scale, 1000)
	c := timePass(func() {
		now := vtime.Time(0)
		tc := trace.New(1, 0.1, func() vtime.Time { return now })
		for i := 0; i < n; i++ {
			tr := tc.Begin("kv.write", i%4)
			tr.SetLabelKey("k001", uint64(i), 12)
			q := tr.Span("queue.key", trace.LayerQueue)
			now += 50
			q.End()
			bt := tr.Span("batch.wait", trace.LayerBatch)
			now += 100
			bt.End()
			w := tr.Span("rpc.batch", trace.LayerWire)
			r := tr.Span("replicate.shard0", trace.LayerReplicate)
			now += 300
			r.End()
			a := tr.Span("apply.shard0", trace.LayerReplicate)
			now += 100
			a.End()
			w.End()
			tr.Finish()
		}
	})
	o["trace.op_trace_ns"] = c.ns / float64(n)

	m := 10 * n
	c = timeIt(trace.NewHist, func(h *trace.Hist) {
		for i := 0; i < m; i++ {
			h.Record(int64(1_000_000 + i*7919%900_000))
		}
	})
	o["trace.hist_record_ns"] = c.ns / float64(m)
	return nil
}

// metricsDriver times one scrape of a 100-series registry and one
// counter increment.
func metricsDriver(o out, scale float64, _ Inputs) error {
	scrapes := scaled(4000, scale, 50)
	type harness struct {
		eng *simkern.Engine
		reg *metrics.Registry
		ctr []*metrics.Counter
	}
	build := func() harness {
		eng := simkern.NewEngine(monitor.NewLog(1), 1)
		reg := metrics.New(metrics.Options{
			Now:      eng.Now,
			Schedule: func(t vtime.Time, fn func()) { eng.At(t, eventq.ClassApp, fn) },
		})
		h := harness{eng: eng, reg: reg}
		for i := 0; i < 100; i++ {
			h.ctr = append(h.ctr, reg.Counter(fmt.Sprintf("bench.c%02d", i)))
		}
		return h
	}
	c := timeIt(build, func(h harness) {
		for _, ctr := range h.ctr {
			ctr.Inc()
		}
		until := vtime.Time(vtime.Duration(scrapes) * metrics.DefaultInterval)
		h.reg.ArmUntil(until)
		h.eng.Run(until)
		if h.reg.Scrapes() != scrapes {
			panic(fmt.Sprintf("layers: metrics: %d scrapes, want %d", h.reg.Scrapes(), scrapes))
		}
	})
	o["metrics.scrape_ns_100_series"] = c.ns / float64(scrapes)

	n := scaled(5_000_000, scale, 10_000)
	c = timeIt(build, func(h harness) {
		ctr := h.ctr[0]
		for i := 0; i < n; i++ {
			ctr.Inc()
		}
	})
	o["metrics.counter_inc_ns"] = c.ns / float64(n)
	return nil
}

// monitorDriver times one event record below the log's limit and one at
// the limit, the path every workload spends most of its run on (the
// default 500k-event head fills in the first virtual second).
func monitorDriver(o out, scale float64, _ Inputs) error {
	n := scaled(300_000, scale, 1000)
	ev := monitor.Event{Kind: monitor.KindMessageSend, Node: 3, Subject: "shard.req", Detail: "to=n4"}
	record := func(log *monitor.Log) {
		for i := 0; i < n; i++ {
			ev.At = vtime.Time(i)
			log.Record(ev)
		}
	}
	c := timeIt(func() *monitor.Log { return monitor.NewLog(n) }, record)
	o["monitor.record_ns"] = c.ns / float64(n)
	c = timeIt(func() *monitor.Log { return monitor.NewLog(1) }, record)
	o["monitor.record_full_ns"] = c.ns / float64(n)
	return nil
}

// loadDriver times laying out an open-loop Poisson schedule: 20000
// ops/s over one virtual second, zipf over 256 keys.
func loadDriver(o out, scale float64, _ Inputs) error {
	window := vtime.Duration(scaled(1000, scale, 50)) * ms
	keys := keyspace()
	laid := 0
	c := timeIt(func() *load.Generator {
		g, err := load.New(load.Config{Name: "bench", Mode: load.Open, Rate: 20000, Keys: keys,
			ZipfSkew: 0.9, Seed: 1, End: vtime.Time(window)})
		if err != nil {
			panic(err)
		}
		laid = 0
		return g
	}, func(g *load.Generator) {
		g.Start(load.Sinks{
			At:       func(vtime.Time, func()) { laid++ },
			SubmitKV: func(string, int64, func()) {},
		})
	})
	if laid == 0 {
		return fmt.Errorf("layers: load: no arrival laid out")
	}
	o["load.layout_ns_per_op"] = c.ns / float64(laid)
	return nil
}
