package scenario

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"hades/internal/cluster"
	"hades/internal/monitor"
	"hades/internal/pubsub"
	"hades/internal/session"
	"hades/internal/trace"
	"hades/internal/vtime"
)

// pubsubBase clones the sensor-fan-out builtin deeply enough to mutate
// its pubsub block (Builtin hands out a shallow copy).
func pubsubBase(t *testing.T) Spec {
	t.Helper()
	spec, err := Builtin("sensor-fan-out")
	if err != nil {
		t.Fatal(err)
	}
	sh := *spec.Shards
	sh.Load = append([]LoadSpec(nil), sh.Load...)
	spec.Shards = &sh
	ps := *spec.PubSub
	ps.Topics = append([]TopicSpec(nil), ps.Topics...)
	ps.Publishers = append([]PublisherSpec(nil), ps.Publishers...)
	ps.Subscribers = append([]SubscriberSpec(nil), ps.Subscribers...)
	ps.Load = append([]LoadSpec(nil), ps.Load...)
	spec.PubSub = &ps
	return spec
}

// TestPubSubSpecValidation rejects malformed pubsub blocks loudly —
// QoS contract violations, endpoints on undeclared topics or unknown
// nodes — and accepts the builtin. (The block's load generators are
// TestLoadSpecValidation's pubsub placement.)
func TestPubSubSpecValidation(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Spec)
		wantErr string // "" = accepted
	}{
		{"builtin valid", func(s *Spec) {}, ""},
		{"requires shards", func(s *Spec) { s.Shards = nil },
			"requires a shards block"},
		{"no topics", func(s *Spec) { s.PubSub.Topics = nil },
			"declares no topics"},
		{"unnamed topic", func(s *Spec) {
			s.PubSub.Topics = append(s.PubSub.Topics, TopicSpec{})
		}, "unnamed"},
		{"duplicate topic", func(s *Spec) {
			s.PubSub.Topics = append(s.PubSub.Topics, s.PubSub.Topics[0])
		}, "duplicate pubsub topic"},
		{"unknown reliability", func(s *Spec) {
			s.PubSub.Topics[1].Reliability = "exactly-once"
		}, "unknown reliability"},
		{"negative deadline", func(s *Spec) {
			s.PubSub.Topics[0].DeadlineMs = -5
		}, "negative deadline"},
		{"durable zero history", func(s *Spec) {
			s.PubSub.Topics[0].HistoryDepth = 0
		}, "needs historyDepth >= 1"},
		{"history without durable", func(s *Spec) {
			s.PubSub.Topics[0].Durable = false
		}, "without durable"},
		{"durable best-effort", func(s *Spec) {
			s.PubSub.Topics[0].Reliability = "bestEffort"
		}, "needs reliable delivery"},
		{"publisher undeclared topic", func(s *Spec) {
			s.PubSub.Publishers[0].Topic = "ghost"
		}, "undeclared topic \"ghost\""},
		{"publisher unknown node", func(s *Spec) {
			s.PubSub.Publishers[0].Node = 99
		}, "unknown node 99"},
		{"publisher zero interval", func(s *Spec) {
			s.PubSub.Publishers[0].SubmitEveryMs = 0
		}, "positive submitEveryMs"},
		{"publisher negative count", func(s *Spec) {
			s.PubSub.Publishers[0].Count = -1
		}, "negative count"},
		{"subscriber undeclared topic", func(s *Spec) {
			s.PubSub.Subscribers[0].Topic = "ghost"
		}, "undeclared topic \"ghost\""},
		{"subscriber unknown node", func(s *Spec) {
			s.PubSub.Subscribers[0].Node = -2
		}, "unknown node -2"},
		{"duplicate subscriber", func(s *Spec) {
			s.PubSub.Subscribers = append(s.PubSub.Subscribers, s.PubSub.Subscribers[0])
		}, "two pubsub subscribers"},
		{"negative join", func(s *Spec) {
			s.PubSub.Subscribers[0].JoinAtMs = -10
		}, "negative instant"},
		{"join past horizon", func(s *Spec) {
			s.PubSub.Subscribers[0].JoinAtMs = s.HorizonMs + 1
		}, "past the"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := pubsubBase(t)
			tc.mutate(&spec)
			_, err := spec.withDefaults()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("valid pubsub block rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("invalid pubsub block accepted")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q missing %q", err, tc.wantErr)
			}
		})
	}
}

// runSensorFanOut builds and runs the builtin at the given seed and
// returns the cluster plus its (single) pub/sub plane.
func runSensorFanOut(t *testing.T, seed int64) (*cluster.Cluster, *pubsub.Plane) {
	t.Helper()
	spec, err := Builtin("sensor-fan-out")
	if err != nil {
		t.Fatal(err)
	}
	spec.Seed = seed
	clu, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	clu.Log().Keep(monitor.Kinds()...)
	clu.Run(spec.Horizon())
	sets := clu.ShardSets()
	if len(sets) != 1 {
		t.Fatalf("got %d shard sets, want 1", len(sets))
	}
	p := sets[0].PubSubPlane()
	if p == nil {
		t.Fatal("sensor-fan-out declared a pubsub block but no plane exists")
	}
	return clu, p
}

// TestSensorFanOutSeeds asserts the builtin's QoS contracts across
// seeds: exactly-once delivery of every reliable durable sample under
// the primary crash, best-effort delivery to every live subscriber
// without blocking, late-joiner convergence to the retained history,
// and every deadline miss surfaced as a monitor violation.
func TestSensorFanOutSeeds(t *testing.T) {
	missSomewhere := false
	for seed := int64(1); seed <= 5; seed++ {
		clu, p := runSensorFanOut(t, seed)
		if err := p.Verify(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := p.CheckComplete("telemetry"); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var tele, sens pubsub.TopicStats
		for _, st := range p.Stats() {
			switch st.Name {
			case "telemetry":
				tele = st
			case "sensors":
				sens = st
			}
		}
		if tele.Published != 300 || tele.Acked != 300 {
			t.Fatalf("seed %d: telemetry published=%d acked=%d, want 300/300", seed, tele.Published, tele.Acked)
		}
		if tele.Dropped != 0 {
			t.Fatalf("seed %d: telemetry dropped %d samples with no subscriber crash", seed, tele.Dropped)
		}
		if tele.HistoryLen != 8 {
			t.Fatalf("seed %d: durable history holds %d samples, want depth 8", seed, tele.HistoryLen)
		}
		// Every from-start subscriber saw all 300 samples exactly once;
		// the late joiner converged to exactly the retained 8.
		for _, sub := range p.Subscribers("telemetry") {
			want := 300
			if sub.JoinTime() > 0 {
				want = 8
			}
			if got := len(sub.Deliveries()); got != want {
				t.Fatalf("seed %d: telemetry sub n%d delivered %d, want %d", seed, sub.Node(), got, want)
			}
		}
		// Best-effort never blocks: every publish acked at its bounded
		// broadcast instant, and with no live-subscriber failure every
		// subscriber saw the full stream.
		if sens.Published == 0 || sens.Acked != sens.Published {
			t.Fatalf("seed %d: sensors published=%d acked=%d (best-effort publish must not block)", seed, sens.Published, sens.Acked)
		}
		for _, sub := range p.Subscribers("sensors") {
			if got := len(sub.Deliveries()); got != sens.Published {
				t.Fatalf("seed %d: sensors sub n%d delivered %d of %d", seed, sub.Node(), got, sens.Published)
			}
		}
		// Deadline misses surface 1:1 as monitor violations.
		misses := 0
		for _, ev := range clu.Log().Events() {
			if ev.Kind == monitor.KindDeadlineMiss && ev.Subject == "pubsub.telemetry" {
				misses++
			}
		}
		if misses != tele.DeadlineMiss {
			t.Fatalf("seed %d: %d deadline misses counted, %d monitor events", seed, tele.DeadlineMiss, misses)
		}
		if misses > 0 {
			missSomewhere = true
		}
	}
	if !missSomewhere {
		t.Fatal("no seed produced a deadline miss — the failover window no longer exercises the deadline QoS")
	}
}

// TestSensorFanOutDeterministic: the same seed reproduces the run
// byte-for-byte — delivery order, monitor log and exported trace.
func TestSensorFanOutDeterministic(t *testing.T) {
	run := func() (string, []byte, []byte) {
		spec, err := Builtin("sensor-fan-out")
		if err != nil {
			t.Fatal(err)
		}
		clu, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		clu.Log().Keep(monitor.Kinds()...)
		clu.Run(spec.Horizon())
		p := clu.ShardSets()[0].PubSubPlane()
		var log bytes.Buffer
		if err := clu.Log().WriteTrace(&log); err != nil {
			t.Fatal(err)
		}
		var tr bytes.Buffer
		if err := trace.WriteChrome(&tr, clu.Tracer().Retained()); err != nil {
			t.Fatal(err)
		}
		var deliveries strings.Builder
		for _, tp := range p.Topics() {
			for i, s := range p.Subscribers(tp.Name()) {
				fmt.Fprintf(&deliveries, "sub %d topic %s node %d: %+v\n", i, tp.Name(), s.Node(), s.Deliveries())
			}
		}
		return deliveries.String(), log.Bytes(), tr.Bytes()
	}
	d1, l1, t1 := run()
	d2, l2, t2 := run()
	if d1 != d2 {
		t.Fatal("same seed produced different delivery orders")
	}
	if !bytes.Equal(l1, l2) {
		t.Fatal("same seed produced different monitor logs")
	}
	if !bytes.Equal(t1, t2) {
		t.Fatal("same seed produced different trace exports")
	}
	if !strings.Contains(d1, "Replay:true") {
		t.Fatal("delivery log records no history replay (late joiner never caught up)")
	}
}

// TestPubSubPassive: a scenario with no pubsub block creates no plane,
// no pubsub metric series and no pubsub monitor events — describing
// the rest of the system is unaffected by the plane existing in the
// codebase.
func TestPubSubPassive(t *testing.T) {
	spec, err := Builtin("hot-shard")
	if err != nil {
		t.Fatal(err)
	}
	clu, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	clu.Run(spec.Horizon())
	for _, set := range clu.ShardSets() {
		if set.PubSubPlane() != nil {
			t.Fatal("run without a pubsub block grew a pubsub plane")
		}
		if err := set.CheckPubSub(); err != nil {
			t.Fatalf("CheckPubSub on a plane-less set: %v", err)
		}
	}
	for _, s := range clu.Metrics().Export().Series {
		if strings.HasPrefix(s.Name, "pubsub.") {
			t.Fatalf("run without a pubsub block scraped series %q", s.Name)
		}
	}
	for _, k := range []monitor.Kind{monitor.KindSampleDrop, monitor.KindCatchUp} {
		if n := clu.Log().CountKind(k); n != 0 {
			t.Fatalf("run without a pubsub block logged %d %s", n, k)
		}
	}
}

// TestLateJoinerThroughPartitionMerge: the durable history survives a
// partition of the owning primary, a mid-partition late joiner catches
// up from the promoted primary, and the merge view triggers a history
// replay — every reliable sample still lands exactly once everywhere.
func TestLateJoinerThroughPartitionMerge(t *testing.T) {
	base := Spec{
		Name: "merge-replay", Nodes: 6, Costs: "default",
		Scheduler: "EDF", Policy: "none", HorizonMs: 500,
		Observe: &ObserveSpec{TraceSampleRate: fptr(1.0)},
		Shards: &ShardsSpec{
			Count: 1, ReplicasPer: 3, Style: "semi-active",
			Routes: map[string]int{"t": 0},
		},
		PubSub: &PubSubSpec{
			Topics: []TopicSpec{
				{Name: "t", Durable: true, HistoryDepth: 4},
			},
			Publishers: []PublisherSpec{
				{Topic: "t", Node: 3, SubmitEveryMs: 5, Count: 60},
			},
			Subscribers: []SubscriberSpec{
				{Topic: "t", Node: 4},
				{Topic: "t", Node: 5, JoinAtMs: 150},
			},
		},
		Faults: []FaultSpec{
			// The owning primary is segmented off alone mid-publish; the
			// majority promotes a replacement, and the heal readmits it
			// through a merge view that replays the history.
			{Kind: "partition", Partition: [][]int{{0}, {1, 2, 3, 4, 5}}, AtMs: 100, HealMs: 250},
		},
		Tasks: []TaskSpec{
			{Name: "watchdog", Law: "periodic", DeadlineMs: 40, PeriodMs: 50,
				Stages: []StageSpec{{Name: "check", Node: 4, WCETUs: 300}}},
		},
	}
	for seed := int64(1); seed <= 3; seed++ {
		spec := base
		spec.Seed = seed
		spec, err := spec.withDefaults()
		if err != nil {
			t.Fatal(err)
		}
		clu, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		clu.Log().Keep(monitor.Kinds()...)
		clu.Run(spec.Horizon())
		p := clu.ShardSets()[0].PubSubPlane()
		if err := p.Verify(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := p.CheckComplete("t"); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		catchups := 0
		for _, ev := range clu.Log().Events() {
			if ev.Kind == monitor.KindCatchUp {
				catchups++
			}
		}
		if catchups == 0 {
			t.Fatalf("seed %d: no CatchUp events — neither the late joiner nor the merge replayed history", seed)
		}
		for _, sub := range p.Subscribers("t") {
			if sub.JoinTime() == 0 {
				if got := len(sub.Deliveries()); got != 60 {
					t.Fatalf("seed %d: from-start sub delivered %d of 60", seed, got)
				}
			}
		}
	}
}

// TestReliablePublishParksThroughPartition: a reliable publish issued
// into a 200ms partition that segments the owning group's serving
// quorum away from the publisher rides the session discipline — one
// retry budget of copies, then parked and silent until the backoff
// re-probe grants the next budget — instead of retransmitting every
// timeout for as long as the partition lasts. The heal resubmits the
// parked publish and it is delivered exactly once.
func TestReliablePublishParksThroughPartition(t *testing.T) {
	const splitMs, healMs = 100, 300
	base := Spec{
		Name: "publish-park", Nodes: 6, Costs: "default",
		Scheduler: "EDF", Policy: "none", HorizonMs: 400,
		Shards: &ShardsSpec{
			Count: 1, ReplicasPer: 3, Style: "semi-active",
			Routes: map[string]int{"t": 0},
		},
		PubSub: &PubSubSpec{
			Topics: []TopicSpec{{Name: "t"}},
			// One sample before the split, one 5ms into it.
			Publishers:  []PublisherSpec{{Topic: "t", Node: 3, SubmitEveryMs: splitMs + 5, Count: 2}},
			Subscribers: []SubscriberSpec{{Topic: "t", Node: 4}, {Topic: "t", Node: 5}},
		},
		Faults: []FaultSpec{
			// The primary keeps quorum on the far side, so no failover
			// rescues the publisher: its copies can only be dropped.
			{Kind: "partition", Partition: [][]int{{0, 1}, {2, 3, 4, 5}}, AtMs: splitMs, HealMs: healMs},
		},
		Tasks: []TaskSpec{
			{Name: "watchdog", Law: "periodic", DeadlineMs: 40, PeriodMs: 50,
				Stages: []StageSpec{{Name: "check", Node: 4, WCETUs: 300}}},
		},
	}
	for seed := int64(1); seed <= 3; seed++ {
		spec := base
		spec.Seed = seed
		spec, err := spec.withDefaults()
		if err != nil {
			t.Fatal(err)
		}
		clu, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		clu.Log().Keep(monitor.Kinds()...)
		clu.Run(spec.Horizon())

		split, heal := vtime.Time(msd(splitMs)), vtime.Time(msd(healMs))
		copies, budgets, parks, healed := 0, 1, 0, false
		for _, ev := range clu.Log().Events() {
			cutOff := ev.At >= split && ev.At < heal
			switch {
			case ev.Kind == monitor.KindMessageSend && ev.Node == 3 && strings.HasSuffix(ev.Subject, ".req") && cutOff:
				copies++
			case ev.Kind == monitor.KindRetry && strings.Contains(ev.Detail, "parked") && cutOff:
				parks++
			case ev.Kind == monitor.KindResubmit && cutOff:
				budgets++ // a backoff re-probe: one fresh budget
			case ev.Kind == monitor.KindResubmit && ev.At >= heal && ev.Detail != "after backoff":
				healed = true
			}
		}
		budget := session.DefaultMaxRetries + 1
		if parks == 0 {
			t.Fatalf("seed %d: the cut-off publish never parked", seed)
		}
		if copies == 0 || copies > budget*budgets {
			t.Fatalf("seed %d: %d copies sent while cut off, want 1..%d (%d budgets of %d)", seed, copies, budget*budgets, budgets, budget)
		}
		// The retired loop sent one copy per timeout for the whole window.
		if cadence := int(msd(healMs-splitMs-5) / session.DefaultTimeout); copies >= cadence {
			t.Fatalf("seed %d: %d copies while cut off — no fewer than the %d of an every-timeout loop", seed, copies, cadence)
		}
		if !healed {
			t.Fatalf("seed %d: no Resubmit record at the heal or the merge view", seed)
		}
		p := clu.ShardSets()[0].PubSubPlane()
		if err := p.Verify(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := p.CheckComplete("t"); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i, sub := range p.Subscribers("t") {
			if got := len(sub.Deliveries()); got != 2 {
				t.Fatalf("seed %d: subscriber %d took %d deliveries of 2 samples", seed, i, got)
			}
		}
	}
}

// TestCoLocatedLateJoinerCatchUpEnds: a late joiner on the owning
// primary's node is answered in place — its catch-up request, the
// replay and the ack are local hops inside the call's first attempt —
// and its catch-up call still ends there: no retry, park or
// resubmission is ever recorded for it.
func TestCoLocatedLateJoinerCatchUpEnds(t *testing.T) {
	spec := pubsubBase(t)
	// telemetry is shard 0, served by n0 until the crash at 300 ms.
	spec.PubSub.Subscribers = append(spec.PubSub.Subscribers,
		SubscriberSpec{Topic: "telemetry", Node: 0, JoinAtMs: 200})
	clu, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	clu.Log().Keep(monitor.Kinds()...)
	clu.Run(spec.Horizon())
	replayed := false
	for _, ev := range clu.Log().Events() {
		switch {
		case ev.Kind == monitor.KindCatchUp && ev.Node == 0 && strings.HasSuffix(ev.Detail, "@n0"):
			replayed = true
		case (ev.Kind == monitor.KindRetry || ev.Kind == monitor.KindResubmit) && strings.Contains(ev.Subject, ".catchup#"):
			t.Fatalf("catch-up call still live: %s", ev)
		}
	}
	if !replayed {
		t.Fatal("the co-located late joiner was never replayed to by n0")
	}
	if err := clu.ShardSets()[0].PubSubPlane().Verify(); err != nil {
		t.Fatal(err)
	}
}
