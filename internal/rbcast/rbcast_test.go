package rbcast

import (
	"fmt"
	"testing"
	"testing/quick"

	"hades/internal/fault"
	"hades/internal/monitor"
	"hades/internal/netsim"
	"hades/internal/simkern"
	"hades/internal/vtime"
)

const us = vtime.Microsecond

func rig(t *testing.T, n, f int) (*simkern.Engine, *netsim.Network, *Service) {
	t.Helper()
	eng := simkern.NewEngine(monitor.NewLog(0), 23)
	group := make([]int, n)
	for i := 0; i < n; i++ {
		eng.AddProcessor("n", 0)
		group[i] = i
	}
	net := netsim.New(eng, netsim.Config{WAtm: 10 * us, WProto: 10 * us, PrioNet: simkern.PrioMax - 2})
	net.ConnectAll(group, 50*us, 150*us)
	svc := New(eng, net, "test", DefaultConfig(net, group, f))
	return eng, net, svc
}

func TestValidityAllCorrect(t *testing.T) {
	eng, _, svc := rig(t, 5, 1)
	delivered := map[int]bool{}
	for i := 0; i < 5; i++ {
		node := i
		svc.OnDeliver(node, func(Delivery) { delivered[node] = true })
	}
	_, at := svc.Broadcast(0, "msg")
	eng.RunUntilIdle()
	if len(delivered) != 5 {
		t.Fatalf("delivered to %d/5", len(delivered))
	}
	if eng.Now() < at {
		t.Fatal("engine stopped before delivery instant")
	}
}

func TestTimelinessFixedInstant(t *testing.T) {
	eng, _, svc := rig(t, 5, 2)
	var times []vtime.Time
	for i := 0; i < 5; i++ {
		svc.OnDeliver(i, func(d Delivery) { times = append(times, d.At) })
	}
	seq, promised := svc.Broadcast(2, 99)
	eng.RunUntilIdle()
	if len(times) != 5 {
		t.Fatalf("deliveries %d", len(times))
	}
	for _, at := range times {
		if at != promised {
			t.Fatalf("delivery at %s, promised %s (timeliness broken)", at, promised)
		}
	}
	if d := svc.Delta(); promised != vtime.Time(d) {
		t.Fatalf("promised %s != Delta %s from t=0", promised, d)
	}
	if got := svc.DeliveredAt(2, seq); len(got) != 5 {
		t.Fatalf("DeliveredAt = %v", got)
	}
}

func TestAgreementUnderSendOmission(t *testing.T) {
	// Node 0 broadcasts but is send-omission faulty for a subset of
	// destinations: with f=1 tolerated and exactly 1 faulty process,
	// agreement must hold (all correct deliver or none).
	eng, net, svc := rig(t, 5, 1)
	// Drop 0's direct sends to nodes 2,3,4 — relays must cover.
	net.SetFault(&selectiveDrop{from: 0, except: map[int]bool{1: true}})
	delivered := map[int]bool{}
	for i := 0; i < 5; i++ {
		node := i
		svc.OnDeliver(node, func(Delivery) { delivered[node] = true })
	}
	svc.Broadcast(0, "x")
	eng.RunUntilIdle()
	// Node 1 got it in round 0 and relays in round 1 to everyone.
	if len(delivered) != 5 {
		t.Fatalf("agreement broken: %d/5 delivered", len(delivered))
	}
}

type selectiveDrop struct {
	from   int
	except map[int]bool
}

func (s *selectiveDrop) Judge(m *netsim.Message) netsim.Verdict {
	if m.From == s.from && !s.except[m.To] {
		return netsim.Verdict{Fate: netsim.FateDrop}
	}
	return netsim.Verdict{Fate: netsim.FateDeliver}
}

func TestIntegrityNoDuplicates(t *testing.T) {
	eng, _, svc := rig(t, 4, 2)
	count := map[int]int{}
	for i := 0; i < 4; i++ {
		node := i
		svc.OnDeliver(node, func(Delivery) { count[node]++ })
	}
	svc.Broadcast(0, "once")
	eng.RunUntilIdle()
	for node, c := range count {
		if c != 1 {
			t.Fatalf("node %d delivered %d times", node, c)
		}
	}
}

func TestLatencyGrowsLinearlyWithF(t *testing.T) {
	var prev vtime.Duration
	for f := 0; f <= 3; f++ {
		_, _, svc := rig(t, 7, f)
		d := svc.Delta()
		if f > 0 && d <= prev {
			t.Fatalf("Delta(f=%d)=%s not above Delta(f=%d)=%s", f, d, f-1, prev)
		}
		if d != vtime.Duration(f+1)*svc.cfg.Round {
			t.Fatalf("Delta = %s, want (f+1)*R", d)
		}
		prev = d
	}
}

// Property: agreement holds for any subset of ≤ f omission-faulty
// senders (f=1, n=5: any single faulty process).
func TestAgreementPropertyRandomFaultyProcess(t *testing.T) {
	f := func(faulty uint8, origin uint8) bool {
		fNode := int(faulty) % 5
		oNode := int(origin) % 5
		eng, net, svc := rig(t, 5, 1)
		net.SetFault(&fault.OmissionFrom{Nodes: map[int]bool{fNode: true}, Port: "rbcast.test"})
		delivered := map[int]bool{}
		for i := 0; i < 5; i++ {
			node := i
			svc.OnDeliver(node, func(Delivery) { delivered[node] = true })
		}
		svc.Broadcast(oNode, "p")
		eng.RunUntilIdle()
		// Count correct nodes that delivered (the faulty one may or
		// may not; it still receives from others — only its sends are
		// broken, so it should deliver too unless it is the origin).
		correct := 0
		for i := 0; i < 5; i++ {
			if i != fNode && delivered[i] {
				correct++
			}
		}
		if fNode == oNode {
			// Faulty origin: all-or-nothing among correct nodes.
			return correct == 0 || correct == 4
		}
		// Correct origin: validity demands all correct deliver.
		return correct == 4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestEpochFlushDiscardsStaleCopies: a copy broadcast in epoch 1 whose
// delivery instant falls after the boundary to epoch 2 is discarded at
// every member — the delivered-or-discarded half of virtual synchrony.
func TestEpochFlushDiscardsStaleCopies(t *testing.T) {
	eng, _, svc := rig(t, 4, 1)
	delivered := map[int]int{}
	for i := 0; i < 4; i++ {
		node := i
		svc.OnDeliver(node, func(Delivery) { delivered[node]++ })
	}
	svc.SetEpoch(1, []int{0, 1, 2, 3})
	svc.Broadcast(0, "old-view")
	// Advance the epoch before the fixed delivery instant: the pending
	// copies must be flushed, identically everywhere.
	svc.SetEpoch(2, []int{0, 1, 2, 3})
	eng.RunUntilIdle()
	if len(delivered) != 0 {
		t.Fatalf("stale-epoch copies delivered at %v", delivered)
	}
	if svc.Flushed != 4 {
		t.Fatalf("flushed %d copies, want 4", svc.Flushed)
	}
	// Current-epoch traffic flows normally.
	svc.Broadcast(0, "new-view")
	eng.RunUntilIdle()
	if len(delivered) != 4 {
		t.Fatalf("current-epoch delivery reached %d/4", len(delivered))
	}
}

// TestEpochMemberRestriction: a member dropped from the epoch's view
// does not deliver even current-epoch traffic; a zero epoch (the
// default) disables flushing entirely.
func TestEpochMemberRestriction(t *testing.T) {
	eng, _, svc := rig(t, 4, 1)
	delivered := map[int]int{}
	for i := 0; i < 4; i++ {
		node := i
		svc.OnDeliver(node, func(Delivery) { delivered[node]++ })
	}
	svc.SetEpoch(2, []int{0, 1, 2}) // node 3 left the view
	svc.Broadcast(0, "x")
	eng.RunUntilIdle()
	if delivered[3] != 0 {
		t.Fatal("ex-member delivered a view-scoped message")
	}
	if delivered[0] != 1 || delivered[1] != 1 || delivered[2] != 1 {
		t.Fatalf("members missed delivery: %v", delivered)
	}
	if svc.Epoch() != 2 {
		t.Fatalf("epoch %d, want 2", svc.Epoch())
	}
}

// slowTo delays every message bound for one node past any round bound.
type slowTo struct {
	node  int
	extra vtime.Duration
}

func (s *slowTo) Judge(m *netsim.Message) netsim.Verdict {
	if m.To == s.node {
		return netsim.Verdict{Fate: netsim.FateDelay, Extra: s.extra}
	}
	return netsim.Verdict{Fate: netsim.FateDeliver}
}

// TestLateCopyDeliversWithViolation: a copy that overruns Δ (the
// network broke the bound the round was sized from) must not panic the
// engine by scheduling its delivery in the past. It is delivered on
// arrival — agreement holds — and the overrun is one recorded
// violation naming the message and the lateness; the relayed duplicate
// that follows adds neither a delivery nor a second violation.
func TestLateCopyDeliversWithViolation(t *testing.T) {
	eng, net, svc := rig(t, 3, 1)
	net.SetFault(&slowTo{node: 2, extra: 2 * svc.Delta()})
	got := map[int]Delivery{}
	for i := 0; i < 3; i++ {
		node := i
		svc.OnDeliver(node, func(d Delivery) {
			if _, dup := got[node]; dup {
				t.Errorf("node %d delivered twice", node)
			}
			got[node] = d
		})
	}
	seq, promised := svc.Broadcast(0, "late")
	eng.RunUntilIdle()
	if len(got) != 3 {
		t.Fatalf("delivered at %d/3 nodes: the late copy was lost", len(got))
	}
	if got[0].At != promised || got[1].At != promised {
		t.Fatalf("on-time nodes delivered at %s and %s, promised %s", got[0].At, got[1].At, promised)
	}
	late := got[2]
	if late.At <= promised || late.Latency != late.At.Sub(0) {
		t.Fatalf("late copy delivered at %s (latency %s), promised %s", late.At, late.Latency, promised)
	}
	viol := eng.Log().Violations()
	if len(viol) != 1 {
		t.Fatalf("%d violations recorded, want exactly 1: %v", len(viol), viol)
	}
	v := viol[0]
	want := fmt.Sprintf("origin=n0 seq=%d copy arrived %s past the delivery bound", seq, late.At.Sub(promised))
	if v.Kind != monitor.KindNetworkOmission || v.Node != 2 || v.At != late.At || v.Detail != want {
		t.Fatalf("violation %+v, want a NET-OMISSION at n2 at %s saying %q", v, late.At, want)
	}
}
