package fault

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

func rig(t *testing.T, n int) (*simkern.Engine, *netsim.Network, []int) {
	t.Helper()
	eng := simkern.NewEngine(monitor.NewLog(0), 41)
	nodes := make([]int, n)
	for i := 0; i < n; i++ {
		eng.AddProcessor("n", 0)
		nodes[i] = i
	}
	net := netsim.New(eng, netsim.Config{WAtm: 5 * us, WProto: 5 * us, PrioNet: simkern.PrioMax - 2})
	net.ConnectAll(nodes, 50*us, 150*us)
	return eng, net, nodes
}

func TestCrashAndRecovery(t *testing.T) {
	eng, net, _ := rig(t, 2)
	CrashAt(eng, net, 1, vtime.Time(1*ms), vtime.Time(5*ms))
	eng.Run(vtime.Time(2 * ms))
	if !net.NodeDown(1) {
		t.Fatal("node not crashed at 2ms")
	}
	eng.Run(vtime.Time(6 * ms))
	if net.NodeDown(1) {
		t.Fatal("node not recovered at 6ms")
	}
	if n := eng.Log().CountKind(monitor.KindFailureInjected); n != 2 {
		t.Fatalf("injection events %d, want 2", n)
	}
}

func TestOmissionEvery(t *testing.T) {
	eng, net, _ := rig(t, 2)
	delivered := 0
	net.Bind(1, "p", func(*netsim.Message) { delivered++ })
	net.SetFault(&OmissionEvery{K: 3})
	for i := 0; i < 9; i++ {
		if _, err := net.Send(0, 1, "p", i, 8); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunUntilIdle()
	if delivered != 6 {
		t.Fatalf("delivered %d, want 6 (every 3rd dropped)", delivered)
	}
}

func TestOmissionFromPortScoped(t *testing.T) {
	eng, net, _ := rig(t, 2)
	gotA, gotB := 0, 0
	net.Bind(1, "a", func(*netsim.Message) { gotA++ })
	net.Bind(1, "b", func(*netsim.Message) { gotB++ })
	net.SetFault(&OmissionFrom{Nodes: map[int]bool{0: true}, Port: "a"})
	_, _ = net.Send(0, 1, "a", 1, 8)
	_, _ = net.Send(0, 1, "b", 1, 8)
	eng.RunUntilIdle()
	if gotA != 0 || gotB != 1 {
		t.Fatalf("a=%d b=%d, want 0/1", gotA, gotB)
	}
}

func TestHooksChaining(t *testing.T) {
	h := Hooks{
		&OmissionFrom{Nodes: map[int]bool{5: true}},
		&OmissionEvery{K: 1}, // drops everything
	}
	v := h.Judge(&netsim.Message{From: 0})
	if v.Fate != netsim.FateDrop {
		t.Fatal("second hook not consulted")
	}
	v = h.Judge(&netsim.Message{From: 5})
	if v.Fate != netsim.FateDrop {
		t.Fatal("first hook not applied")
	}
}

func TestDetectorDetectsCrash(t *testing.T) {
	eng, net, nodes := rig(t, 3)
	det := NewDetector(eng, net, DefaultDetectorConfig(nodes), nil)
	det.Start()
	crashAt := vtime.Time(50 * ms)
	CrashAt(eng, net, 2, crashAt, 0)
	eng.Run(vtime.Time(200 * ms))
	if !det.Suspected(0, 2) || !det.Suspected(1, 2) {
		t.Fatal("crash not detected by all observers")
	}
	// Detection latency bounded by period + timeout.
	for _, s := range det.Suspicions {
		if s.Suspect != 2 {
			t.Fatalf("false suspicion of node %d", s.Suspect)
		}
		lat := s.At.Sub(crashAt)
		bound := HeartbeatPeriod + det.Timeout(s.Observer, 2) + HeartbeatPeriod
		if lat > bound {
			t.Fatalf("detection latency %s above bound %s", lat, bound)
		}
	}
}

func TestDetectorNoFalseSuspicions(t *testing.T) {
	eng, net, nodes := rig(t, 4)
	det := NewDetector(eng, net, DefaultDetectorConfig(nodes), nil)
	det.Start()
	eng.Run(vtime.Time(500 * ms))
	if len(det.Suspicions) != 0 {
		t.Fatalf("false suspicions: %+v", det.Suspicions)
	}
}

func TestDetectorRehabilitation(t *testing.T) {
	eng, net, nodes := rig(t, 2)
	cfg := DefaultDetectorConfig(nodes)
	det := NewDetector(eng, net, cfg, nil)
	det.Start()
	CrashAt(eng, net, 1, vtime.Time(30*ms), vtime.Time(100*ms))
	eng.Run(vtime.Time(80 * ms))
	if !det.Suspected(0, 1) {
		t.Fatal("crash not detected")
	}
	eng.Run(vtime.Time(300 * ms))
	if det.Suspected(0, 1) {
		t.Fatal("recovered node still suspected")
	}
	for peer, s := range det.suspected[0] {
		if s {
			t.Fatalf("still suspects n%d", peer)
		}
	}
}

// TestRecoveredPeerUnsuspectedByAllObservers is the rehabilitation
// regression test: after a crash long enough for every observer to
// suspect the peer, recovery must rehabilitate it at *every* observer,
// and each rehabilitation must be recorded.
func TestRecoveredPeerUnsuspectedByAllObservers(t *testing.T) {
	eng, net, nodes := rig(t, 4)
	det := NewDetector(eng, net, DefaultDetectorConfig(nodes), nil)
	det.Start()
	CrashAt(eng, net, 3, vtime.Time(30*ms), vtime.Time(120*ms))
	eng.Run(vtime.Time(100 * ms))
	for _, obs := range []int{0, 1, 2} {
		if !det.Suspected(obs, 3) {
			t.Fatalf("observer %d did not suspect the crashed node", obs)
		}
	}
	eng.Run(vtime.Time(300 * ms))
	rehabbed := map[int]bool{}
	for _, r := range det.Rehabilitations {
		if r.Peer == 3 {
			rehabbed[r.Observer] = true
		}
	}
	for _, obs := range []int{0, 1, 2} {
		if det.Suspected(obs, 3) {
			t.Fatalf("observer %d still suspects the recovered node", obs)
		}
		if !rehabbed[obs] {
			t.Fatalf("observer %d recorded no rehabilitation of node 3 (have %+v)", obs, det.Rehabilitations)
		}
	}
}

// TestRecoveredObserverDoesNotMassSuspect: an observer that crashes
// and recovers has stale heartbeat bookkeeping for every peer; without
// the recovery reset it would falsely suspect every live node at its
// first check tick.
func TestRecoveredObserverDoesNotMassSuspect(t *testing.T) {
	eng, net, nodes := rig(t, 4)
	det := NewDetector(eng, net, DefaultDetectorConfig(nodes), nil)
	det.Start()
	CrashAt(eng, net, 0, vtime.Time(30*ms), vtime.Time(130*ms))
	eng.Run(vtime.Time(200 * ms))
	for peer, s := range det.suspected[0] {
		if s {
			t.Fatalf("recovered observer falsely suspects n%d", peer)
		}
	}
	for _, s := range det.Suspicions {
		if s.Observer == 0 {
			t.Fatalf("false suspicion by the recovered observer: %+v", s)
		}
	}
}

// TestRecoveredObserverRehabilitatesOldSuspicions: suspicions an
// observer held when it crashed are rehabilitated on its recovery (the
// world may have changed while it was down), not carried over stale.
func TestRecoveredObserverRehabilitatesOldSuspicions(t *testing.T) {
	eng, net, nodes := rig(t, 3)
	det := NewDetector(eng, net, DefaultDetectorConfig(nodes), nil)
	det.Start()
	// Node 2 crashes and recovers while observer 0 is itself down.
	CrashAt(eng, net, 2, vtime.Time(20*ms), vtime.Time(60*ms))
	CrashAt(eng, net, 0, vtime.Time(50*ms), vtime.Time(150*ms))
	eng.Run(vtime.Time(45 * ms))
	if !det.Suspected(0, 2) {
		t.Fatal("observer 0 never suspected node 2")
	}
	eng.Run(vtime.Time(250 * ms))
	if det.Suspected(0, 2) {
		t.Fatal("observer 0 still suspects node 2 after both recovered")
	}
	var found bool
	for _, r := range det.Rehabilitations {
		if r.Observer == 0 && r.Peer == 2 && r.At == vtime.Time(150*ms) {
			found = true
		}
	}
	if !found {
		t.Fatalf("no recovery-time rehabilitation of (0,2): %+v", det.Rehabilitations)
	}
}

func TestDetectorCallbackFires(t *testing.T) {
	eng, net, nodes := rig(t, 2)
	var fired []Suspicion
	det := NewDetector(eng, net, DefaultDetectorConfig(nodes), func(s Suspicion) {
		fired = append(fired, s)
	})
	det.Start()
	CrashAt(eng, net, 0, vtime.Time(20*ms), 0)
	eng.Run(vtime.Time(100 * ms))
	if len(fired) != 1 || fired[0].Suspect != 0 || fired[0].Observer != 1 {
		t.Fatalf("callback fired %+v", fired)
	}
}
