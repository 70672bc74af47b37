package netsim

import (
	"slices"
	"testing"

	"hades/internal/eventq"
	"hades/internal/monitor"
	"hades/internal/simkern"
	"hades/internal/vtime"
)

const (
	us = vtime.Microsecond
	ms = vtime.Millisecond
)

func twoNodes(t *testing.T, cfg Config) (*simkern.Engine, *Network) {
	t.Helper()
	eng := simkern.NewEngine(monitor.NewLog(0), 11)
	eng.AddProcessor("n0", 0)
	eng.AddProcessor("n1", 0)
	n := New(eng, cfg)
	n.Connect(0, 1, 100*us, 300*us)
	return eng, n
}

func TestDeliveryWithinBounds(t *testing.T) {
	eng, n := twoNodes(t, DefaultConfig())
	// The *Message lives only for the handler call: keep it by value.
	var got *Message
	n.Bind(1, "app", func(m *Message) { c := *m; got = &c })
	if _, err := n.Send(0, 1, "app", "payload", 8); err != nil {
		t.Fatal(err)
	}
	eng.RunUntilIdle()
	if got == nil {
		t.Fatal("not delivered")
	}
	lat := got.DeliveredAt.Sub(got.SentAt)
	min := 100*us + DefaultConfig().WAtm + DefaultConfig().WProto
	max := 300*us + DefaultConfig().WAtm + DefaultConfig().WProto + 100*us // queueing slack
	if lat < min || lat > max {
		t.Fatalf("latency %s outside [%s, %s]", lat, min, max)
	}
	if got.Payload != "payload" {
		t.Fatal("payload lost")
	}
}

func TestReceivePathChargesCPU(t *testing.T) {
	eng, n := twoNodes(t, DefaultConfig())
	n.Bind(1, "app", func(*Message) {})
	_, _ = n.Send(0, 1, "app", 1, 8)
	eng.RunUntilIdle()
	p1 := eng.Processors()[1]
	if p1.IRQTime() != DefaultConfig().WAtm {
		t.Fatalf("ATM IRQ time %s, want %s", p1.IRQTime(), DefaultConfig().WAtm)
	}
	if p1.BusyTime() != DefaultConfig().WProto {
		t.Fatalf("protocol time %s, want %s", p1.BusyTime(), DefaultConfig().WProto)
	}
	st := p1.IRQBySource()["atm"]
	if st == nil || st.Count != 1 {
		t.Fatal("atm IRQ not recorded")
	}
}

func TestFIFOPerLink(t *testing.T) {
	eng, n := twoNodes(t, DefaultConfig())
	var order []int
	n.Bind(1, "app", func(m *Message) { order = append(order, m.Payload.(int)) })
	for i := 0; i < 20; i++ {
		if _, err := n.Send(0, 1, "app", i, 8); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunUntilIdle()
	if len(order) != 20 {
		t.Fatalf("delivered %d", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("FIFO violated at %d: %v", i, order)
		}
	}
}

func TestNoLinkError(t *testing.T) {
	eng := simkern.NewEngine(nil, 1)
	eng.AddProcessor("n0", 0)
	eng.AddProcessor("n1", 0)
	n := New(eng, DefaultConfig())
	if _, err := n.Send(0, 1, "x", nil, 0); err == nil {
		t.Fatal("send without link must fail")
	}
}

func TestNodeDownDropsTraffic(t *testing.T) {
	eng, n := twoNodes(t, DefaultConfig())
	delivered := 0
	n.Bind(1, "app", func(*Message) { delivered++ })
	n.SetNodeDown(1, true)
	_, _ = n.Send(0, 1, "app", 1, 8)
	eng.RunUntilIdle()
	if delivered != 0 {
		t.Fatal("crashed node received")
	}
	if n.Stats().Dropped != 1 {
		t.Fatalf("dropped = %d", n.Stats().Dropped)
	}
	n.SetNodeDown(1, false)
	_, _ = n.Send(0, 1, "app", 2, 8)
	eng.RunUntilIdle()
	if delivered != 1 {
		t.Fatal("recovered node did not receive")
	}
}

type alwaysDrop struct{}

func (alwaysDrop) Judge(*Message) Verdict { return Verdict{Fate: FateDrop} }

type alwaysDelay struct{ extra vtime.Duration }

func (a alwaysDelay) Judge(*Message) Verdict { return Verdict{Fate: FateDelay, Extra: a.extra} }

func TestOmissionFault(t *testing.T) {
	eng, n := twoNodes(t, DefaultConfig())
	delivered := 0
	n.Bind(1, "app", func(*Message) { delivered++ })
	n.SetFault(alwaysDrop{})
	_, _ = n.Send(0, 1, "app", 1, 8)
	eng.RunUntilIdle()
	if delivered != 0 || n.Stats().Dropped != 1 {
		t.Fatalf("delivered=%d dropped=%d", delivered, n.Stats().Dropped)
	}
}

func TestPerformanceFault(t *testing.T) {
	eng, n := twoNodes(t, DefaultConfig())
	var at vtime.Time
	n.Bind(1, "app", func(m *Message) { at = m.DeliveredAt })
	n.SetFault(alwaysDelay{extra: 10 * ms})
	_, _ = n.Send(0, 1, "app", 1, 8)
	eng.RunUntilIdle()
	if at < vtime.Time(10*ms) {
		t.Fatalf("performance fault not applied: delivered at %s", at)
	}
	if n.Stats().Late != 1 {
		t.Fatalf("late = %d", n.Stats().Late)
	}
}

func TestUnboundPortDropsQuietly(t *testing.T) {
	eng, n := twoNodes(t, DefaultConfig())
	_, _ = n.Send(0, 1, "nobody-listens", 1, 8)
	eng.RunUntilIdle()
	if n.Stats().Delivered != 1 {
		t.Fatal("message should count as delivered (then dropped at demux)")
	}
}

func TestDelayBounds(t *testing.T) {
	_, n := twoNodes(t, DefaultConfig())
	dmin, dmax, ok := n.DelayBounds(0, 1)
	if !ok || dmin != 100*us || dmax != 300*us {
		t.Fatalf("bounds %s/%s ok=%v", dmin, dmax, ok)
	}
	if _, _, ok := n.DelayBounds(0, 9); ok {
		t.Fatal("bounds for missing link")
	}
	if d, ok := n.DelayBound(1, 0); !ok || d != 300*us {
		t.Fatal("reverse link missing")
	}
}

// fourNodes builds a fully connected 4-node network.
func fourNodes(t *testing.T) (*simkern.Engine, *Network) {
	t.Helper()
	eng := simkern.NewEngine(monitor.NewLog(0), 11)
	nodes := []int{0, 1, 2, 3}
	for range nodes {
		eng.AddProcessor("n", 0)
	}
	n := New(eng, DefaultConfig())
	n.ConnectAll(nodes, 100*us, 300*us)
	return eng, n
}

func TestPartitionCutsCrossSideTraffic(t *testing.T) {
	eng, n := fourNodes(t)
	delivered := map[int]int{}
	for i := 0; i < 4; i++ {
		node := i
		n.Bind(node, "app", func(*Message) { delivered[node]++ })
	}
	n.SetPartition([]int{0, 1}, []int{2, 3})
	_, _ = n.Send(0, 2, "app", 1, 8) // cross-side: dropped
	_, _ = n.Send(0, 1, "app", 2, 8) // same side: delivered
	_, _ = n.Send(3, 2, "app", 3, 8) // same side: delivered
	_, _ = n.Send(2, 1, "app", 4, 8) // cross-side: dropped
	eng.RunUntilIdle()
	if delivered[2] != 1 || delivered[1] != 1 {
		t.Fatalf("same-side deliveries: %v", delivered)
	}
	if n.Stats().PartDropped != 2 {
		t.Fatalf("partition drops %d, want 2", n.Stats().PartDropped)
	}
	if !n.Partitioned(0, 2) || n.Partitioned(0, 1) {
		t.Fatal("Partitioned predicate wrong")
	}
}

func TestPartitionHealRestoresConnectivity(t *testing.T) {
	eng, n := fourNodes(t)
	delivered := 0
	n.Bind(2, "app", func(*Message) { delivered++ })
	n.SetPartition([]int{0, 1}, []int{2, 3})
	n.Heal()
	_, _ = n.Send(0, 2, "app", 1, 8)
	eng.RunUntilIdle()
	if delivered != 1 {
		t.Fatal("healed network did not deliver")
	}
	if n.PartitionActive() {
		t.Fatal("partition still active after heal")
	}
}

func TestPartitionDropsInFlightCopies(t *testing.T) {
	eng, n := fourNodes(t)
	delivered := 0
	n.Bind(2, "app", func(*Message) { delivered++ })
	// Send just before the cut: the copy is in flight (>= 100us of
	// link delay) when the partition lands at +1us.
	_, _ = n.Send(0, 2, "app", 1, 8)
	eng.At(eng.Now().Add(1*us), eventq.ClassApp, func() { n.SetPartition([]int{0, 1}, []int{2, 3}) })
	eng.RunUntilIdle()
	if delivered != 0 {
		t.Fatal("in-flight copy survived the cut")
	}
	if n.Stats().PartDropped != 1 {
		t.Fatalf("partition drops %d, want 1", n.Stats().PartDropped)
	}
}

func TestPartitionUnlistedNodeReachesEverySide(t *testing.T) {
	eng, n := fourNodes(t)
	delivered := map[int]int{}
	for i := 0; i < 4; i++ {
		node := i
		n.Bind(node, "app", func(*Message) { delivered[node]++ })
	}
	// Node 3 is listed in no side: it stands outside the segmented
	// segment and keeps full connectivity.
	n.SetPartition([]int{0}, []int{1, 2})
	_, _ = n.Send(3, 0, "app", 1, 8)
	_, _ = n.Send(3, 1, "app", 2, 8)
	_, _ = n.Send(0, 3, "app", 3, 8)
	eng.RunUntilIdle()
	if delivered[0] != 1 || delivered[1] != 1 || delivered[3] != 1 {
		t.Fatalf("unlisted-node deliveries: %v", delivered)
	}
}

func TestPartitionChangeHooksFire(t *testing.T) {
	eng, n := fourNodes(t)
	var transitions []bool
	n.OnPartitionChange(func(p bool) { transitions = append(transitions, p) })
	eng.At(vtime.Time(1*ms), eventq.ClassApp, func() { n.SetPartition([]int{0}, []int{1, 2, 3}) })
	eng.At(vtime.Time(2*ms), eventq.ClassApp, n.Heal)
	eng.RunUntilIdle()
	if len(transitions) != 2 || !transitions[0] || transitions[1] {
		t.Fatalf("transitions %v, want [true false]", transitions)
	}
	// Healing twice is a no-op (no second callback).
	n.Heal()
	if len(transitions) != 2 {
		t.Fatal("idempotent heal fired a watcher")
	}
}

func TestPartitionRejectsNodeInTwoSides(t *testing.T) {
	_, n := fourNodes(t)
	defer func() {
		if recover() == nil {
			t.Fatal("node in two sides accepted")
		}
	}()
	n.SetPartition([]int{0, 1}, []int{1, 2})
}

// TestDropReasons: each of the five ways a message is lost bumps Dropped
// once, records one KindMessageDrop whose detail is "id=<n> <reason>" on
// the receiver's port, and only the two partition cuts count as
// PartDropped.
func TestDropReasons(t *testing.T) {
	for _, tc := range []struct {
		why   string
		part  int
		cause func(eng *simkern.Engine, n *Network)
	}{
		{"node down", 0, func(_ *simkern.Engine, n *Network) { n.SetNodeDown(2, true) }},
		{"partitioned", 1, func(_ *simkern.Engine, n *Network) { n.SetPartition([]int{0, 1}, []int{2, 3}) }},
		{"omission", 0, func(_ *simkern.Engine, n *Network) { n.SetFault(alwaysDrop{}) }},
		{"receiver down", 0, func(eng *simkern.Engine, n *Network) {
			eng.At(eng.Now().Add(1*us), eventq.ClassApp, func() { n.SetNodeDown(2, true) })
		}},
		{"partitioned in flight", 1, func(eng *simkern.Engine, n *Network) {
			eng.At(eng.Now().Add(1*us), eventq.ClassApp, func() { n.SetPartition([]int{0, 1}, []int{2, 3}) })
		}},
	} {
		t.Run(tc.why, func(t *testing.T) {
			eng, n := fourNodes(t)
			n.Bind(2, "app", func(*Message) { t.Error("a dropped message was delivered") })
			tc.cause(eng, n) // at once, or 1us from now with the copy in flight
			_, _ = n.Send(0, 2, "app", 1, 8)
			eng.RunUntilIdle()
			if st := n.Stats(); st.Dropped != 1 || st.PartDropped != tc.part || n.Inflight() != 0 {
				t.Fatalf("stats %+v, inflight %d", st, n.Inflight())
			}
			drops := eng.Log().ByKind(monitor.KindMessageDrop)
			if len(drops) != 1 || drops[0].Node != 2 || drops[0].Subject != "app" || drops[0].Detail != "id=1 "+tc.why {
				t.Fatalf("drop records %+v, want one on n2/app with detail %q", drops, "id=1 "+tc.why)
			}
		})
	}
}

// TestEveryPathRecyclesItsRecord: a delivery, an unbound port, each of
// the five drops and a Local hop all return the message record to the
// free list with its Message zeroed, so the next message reuses it and
// no payload stays reachable.
func TestEveryPathRecyclesItsRecord(t *testing.T) {
	for _, tc := range []struct {
		name string
		hop  func(eng *simkern.Engine, n *Network)
	}{
		{"delivered", func(_ *simkern.Engine, n *Network) { _, _ = n.Send(0, 2, "app", 1, 8) }},
		{"no handler", func(_ *simkern.Engine, n *Network) { _, _ = n.Send(0, 2, "unbound", 1, 8) }},
		{"node down", func(_ *simkern.Engine, n *Network) { n.SetNodeDown(2, true); _, _ = n.Send(0, 2, "app", 1, 8) }},
		{"partitioned", func(_ *simkern.Engine, n *Network) {
			n.SetPartition([]int{0, 1}, []int{2, 3})
			_, _ = n.Send(0, 2, "app", 1, 8)
		}},
		{"omission", func(_ *simkern.Engine, n *Network) { n.SetFault(alwaysDrop{}); _, _ = n.Send(0, 2, "app", 1, 8) }},
		{"receiver down", func(eng *simkern.Engine, n *Network) {
			eng.At(eng.Now().Add(1*us), eventq.ClassApp, func() { n.SetNodeDown(2, true) })
			_, _ = n.Send(0, 2, "app", 1, 8)
		}},
		{"partitioned in flight", func(eng *simkern.Engine, n *Network) {
			eng.At(eng.Now().Add(1*us), eventq.ClassApp, func() { n.SetPartition([]int{0, 1}, []int{2, 3}) })
			_, _ = n.Send(0, 2, "app", 1, 8)
		}},
		{"local", func(_ *simkern.Engine, n *Network) { n.Local(2, 2, "app", 1, 8) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, n := fourNodes(t)
			n.Bind(2, "app", func(*Message) {})
			tc.hop(eng, n)
			eng.RunUntilIdle()
			f := n.free
			if f == nil || f.next != nil || f.m != (Message{}) {
				t.Fatalf("free list after one hop: %+v, want one record with a zero Message", f)
			}
			n.SetNodeDown(2, false)
			n.SetFault(nil)
			n.Heal()
			_, _ = n.Send(0, 2, "app", 1, 8)
			eng.RunUntilIdle()
			if n.free != f || f.next != nil {
				t.Fatal("the next message did not reuse the record")
			}
		})
	}
}

// TestHandlerMessageLivesForTheCall: the *Message a handler receives is
// recycled when the handler returns; a handler keeps a copy.
func TestHandlerMessageLivesForTheCall(t *testing.T) {
	eng, n := twoNodes(t, DefaultConfig())
	var kept *Message
	var copied Message
	n.Bind(1, "app", func(m *Message) { kept, copied = m, *m })
	id, err := n.Send(0, 1, "app", "payload", 8)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntilIdle()
	if copied.ID != id || copied.Payload != "payload" || copied.DeliveredAt == 0 {
		t.Fatalf("copy %+v, want id %d with its payload", copied, id)
	}
	if *kept != (Message{}) {
		t.Fatalf("message after the handler returned: %+v, want zeroed", *kept)
	}
}

// TestNetMsgThreadNames: on a log that keeps them, the protocol
// thread's records carry NetMsg#<n>, numbered per received message.
func TestNetMsgThreadNames(t *testing.T) {
	eng, n := twoNodes(t, DefaultConfig())
	n.Bind(1, "app", func(*Message) {})
	for i := 0; i < 3; i++ {
		_, _ = n.Send(0, 1, "app", i, 8)
		eng.RunUntilIdle()
	}
	for _, kind := range []monitor.Kind{monitor.KindThreadReady, monitor.KindThreadStart} {
		var subjects []string
		for _, e := range eng.Log().ByKind(kind) {
			subjects = append(subjects, e.Subject)
		}
		if want := []string{"NetMsg#1", "NetMsg#2", "NetMsg#3"}; !slices.Equal(subjects, want) {
			t.Fatalf("%s subjects %v, want %v", kind, subjects, want)
		}
	}
}

// TestLocalDispatch: Local reaches the handler Bind registered, in the
// caller's own instant and with no network accounting, and reports an
// unbound port instead of dropping.
func TestLocalDispatch(t *testing.T) {
	eng, n := twoNodes(t, DefaultConfig())
	var got Message
	n.Bind(1, "app", func(m *Message) { got = *m })
	if !n.Local(1, 1, "app", "self", 4) || got != (Message{From: 1, To: 1, Port: "app", Payload: "self", Size: 4, SentAt: eng.Now()}) {
		t.Fatalf("bound handler not reached: got %+v", got)
	}
	if n.Local(1, 1, "nobody-listens", "self", 4) || n.Local(1, 0, "app", "self", 4) {
		t.Fatal("Local reported a handler where none is bound")
	}
	if st := n.Stats(); st != (Stats{}) || eng.Log().Len() != 0 {
		t.Fatalf("Local touched the network's books: %+v, %d events", st, eng.Log().Len())
	}
}

// TestLocalAfterChecksBothEnds: a delayed local hop lands after its
// delay, is not armed while its sender is down, and is dropped quietly
// when its receiver is down as it lands; it touches no counter and
// records nothing, as Local does.
func TestLocalAfterChecksBothEnds(t *testing.T) {
	eng, n := twoNodes(t, DefaultConfig())
	var got []vtime.Time
	n.Bind(1, "app", func(m *Message) { got = append(got, eng.Now()) })
	n.LocalAfter(10*us, 1, 1, "app", "self", 4)
	eng.Run(vtime.Time(9 * us))
	if len(got) != 0 {
		t.Fatal("landed before its delay")
	}
	eng.RunUntilIdle()
	if len(got) != 1 || got[0] != vtime.Time(10*us) {
		t.Fatalf("landed at %v, want once at 10us", got)
	}
	n.SetNodeDown(1, true)
	n.LocalAfter(10*us, 1, 1, "app", "self", 4) // sender down: never armed
	if pending := eng.QueueLen(); pending != 0 {
		t.Fatalf("%d events armed by a down sender", pending)
	}
	n.SetNodeDown(1, false)
	n.LocalAfter(10*us, 1, 1, "app", "self", 4)
	n.SetNodeDown(1, true) // receiver down as it lands
	eng.RunUntilIdle()
	if len(got) != 1 {
		t.Fatalf("%d hops handled, want 1", len(got))
	}
	if st := n.Stats(); st != (Stats{}) || eng.Log().Len() != 0 {
		t.Fatalf("LocalAfter touched the network's books: %+v, %d events", st, eng.Log().Len())
	}
	if n.free == nil || n.free.next != nil {
		t.Fatal("the delayed hops did not share one recycled record")
	}
}
