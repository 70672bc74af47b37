package clocksync

import (
	"testing"

	"hades/internal/monitor"
	"hades/internal/netsim"
	"hades/internal/simkern"
	"hades/internal/vtime"
)

const (
	us = vtime.Microsecond
	ms = vtime.Millisecond
)

func rig(t *testing.T, n, f int, drift float64) (*simkern.Engine, *netsim.Network, *Service) {
	t.Helper()
	eng := simkern.NewEngine(monitor.NewLog(0), 17)
	nodes := make([]int, n)
	for i := 0; i < n; i++ {
		eng.AddProcessor("n", 0)
		nodes[i] = i
	}
	net := netsim.New(eng, netsim.Config{WAtm: 5 * us, WProto: 5 * us, PrioNet: simkern.PrioMax - 2})
	net.ConnectAll(nodes, 100*us, 200*us)
	cfg := DefaultConfig(nodes, f)
	cfg.MaxDrift = drift
	svc, err := New(eng, net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, net, svc
}

func TestNeedsThreeFPlusOne(t *testing.T) {
	eng := simkern.NewEngine(nil, 1)
	var nodes []int
	for i := 0; i < 3; i++ {
		eng.AddProcessor("n", 0)
		nodes = append(nodes, i)
	}
	net := netsim.New(eng, netsim.DefaultConfig())
	if _, err := New(eng, net, DefaultConfig(nodes, 1)); err == nil {
		t.Fatal("n=3, f=1 accepted (needs 3f+1=4)")
	}
}

func TestConvergenceNoFaults(t *testing.T) {
	eng, _, svc := rig(t, 4, 1, 1e-5)
	before := svc.Precision()
	svc.Start()
	eng.Run(vtime.Time(2 * vtime.Second))
	after := svc.Precision()
	if svc.Rounds() < 15 {
		t.Fatalf("rounds = %d", svc.Rounds())
	}
	if after >= before {
		t.Fatalf("no convergence: %s -> %s", before, after)
	}
	if bound := svc.Bound(); after > bound {
		t.Fatalf("precision %s exceeds bound %s", after, bound)
	}
}

func TestPrecisionBoundHeldEveryRound(t *testing.T) {
	eng, _, svc := rig(t, 7, 2, 1e-5)
	svc.Start()
	eng.Run(vtime.Time(3 * vtime.Second))
	bound := svc.Bound()
	// Skip the initial convergence phase (first 5 rounds).
	for i, p := range svc.History {
		if i >= 5 && p > bound {
			t.Fatalf("round %d precision %s exceeds bound %s", i, p, bound)
		}
	}
}

func TestToleratesByzantineClocks(t *testing.T) {
	eng, _, svc := rig(t, 7, 2, 1e-5)
	// Two two-faced Byzantine clocks (f = 2).
	svc.MakeByzantine(0, TwoFacedByzantine(50*ms, eng.Rand()))
	svc.MakeByzantine(3, func(dst int, tt vtime.Time) vtime.Time {
		return tt.Add(vtime.Duration(dst) * 10 * ms)
	})
	svc.Start()
	eng.Run(vtime.Time(3 * vtime.Second))
	p := svc.Precision()
	if bound := svc.Bound(); p > bound {
		t.Fatalf("Byzantine clocks broke sync: precision %s > bound %s", p, bound)
	}
}

func TestFailsBeyondByzantineBudget(t *testing.T) {
	// With f=1 configured but 3 Byzantine clocks in n=4, correct nodes
	// may be dragged arbitrarily: precision over correct nodes can
	// exceed the bound. (Not guaranteed to explode every run; the
	// adversary here is strong enough.)
	eng, _, svc := rig(t, 4, 1, 1e-6)
	for _, n := range []int{0, 1, 2} {
		node := n
		svc.MakeByzantine(node, func(dst int, tt vtime.Time) vtime.Time {
			return tt.Add(vtime.Duration(100+10*node+dst) * ms)
		})
	}
	svc.Start()
	eng.Run(vtime.Time(2 * vtime.Second))
	// Only one correct node left: precision over one node is 0 — check
	// instead that its correction was dragged far from zero.
	c := svc.clocks[3]
	if c.correction > -ms && c.correction < ms {
		t.Skipf("adversary failed to drag the correct clock (correction=%s)", c.correction)
	}
}

func TestCrashedNodeExcluded(t *testing.T) {
	eng, net, svc := rig(t, 5, 1, 1e-5)
	svc.Start()
	net.SetNodeDown(4, true)
	eng.Run(vtime.Time(2 * vtime.Second))
	if svc.Precision() > svc.Bound() {
		t.Fatalf("crash broke sync: %s", svc.Precision())
	}
}

func TestToleratesMessageOmissions(t *testing.T) {
	// Random 20% message loss: fewer readings per round, but as long
	// as > 2f survive, convergence still holds within the bound.
	eng, net, svc := rig(t, 7, 2, 1e-5)
	drop := 0
	net.SetFault(omitEvery{k: 5, n: &drop})
	svc.Start()
	eng.Run(vtime.Time(3 * vtime.Second))
	if drop == 0 {
		t.Fatal("fault hook never fired")
	}
	if p, b := svc.Precision(), svc.Bound(); p > b {
		t.Fatalf("omissions broke sync: precision %s > bound %s", p, b)
	}
}

type omitEvery struct {
	k int
	n *int
}

func (o omitEvery) Judge(m *netsim.Message) netsim.Verdict {
	*o.n++
	if *o.n%o.k == 0 {
		return netsim.Verdict{Fate: netsim.FateDrop}
	}
	return netsim.Verdict{Fate: netsim.FateDeliver}
}

func TestHardwareClockModel(t *testing.T) {
	c := &NodeClock{offset: 100 * us, drift: 1e-4}
	h := c.hardware(vtime.Time(vtime.Second))
	want := vtime.Time(vtime.Second + 100*vtime.Microsecond + vtime.Duration(1e-4*1e9))
	diff := h - want
	if diff < -10 || diff > 10 { // float rounding tolerance, ns
		t.Fatalf("hardware clock %d, want %d", h, want)
	}
	c.correction = -50 * us
	if l := c.logical(vtime.Time(vtime.Second)); l != h.Add(-50*us) {
		t.Fatalf("logical %d", l)
	}
}
