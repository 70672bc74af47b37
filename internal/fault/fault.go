// Package fault provides failure injection and failure detection for
// the §2.1 failure model: crash, omission and coherent-value failures
// for processors, Byzantine failures for clocks (injected through
// clocksync), performance and omission failures for the network.
//
// All injection is deterministic: probabilistic hooks draw from the
// engine's seeded source, scripted hooks fire at fixed virtual instants.
// The detector is the classic heartbeat protocol with a synchronous
// bound: every node broadcasts a heartbeat each period; a peer silent
// for longer than period + delay-bound + margin is suspected. In the
// simulated synchronous network this detector is *perfect* (no false
// suspicions while the margin covers the receive path), with detection
// latency ≤ period + bound — the coverage argument of §2.1.
package fault

import (
	"hades/internal/eventq"
	"hades/internal/monitor"
	"hades/internal/netsim"
	"hades/internal/simkern"
	"hades/internal/vtime"
)

// CrashAt schedules a crash of node at instant t; if recoverAt is
// non-zero the node comes back then. Crashed nodes neither send nor
// receive (netsim drops their traffic).
func CrashAt(eng *simkern.Engine, net *netsim.Network, node int, t, recoverAt vtime.Time) {
	eng.Arm(t, eventq.ClassApp, eventq.Func(func() {
		net.SetNodeDown(node, true)
		eng.Recordf(monitor.KindFailureInjected, node, "crash", "")
	}), 0)
	if recoverAt > t {
		eng.Arm(recoverAt, eventq.ClassApp, eventq.Func(func() {
			net.SetNodeDown(node, false)
			eng.Recordf(monitor.KindFailureInjected, node, "recover", "")
		}), 0)
	}
}

// PartitionAt schedules a network partition into the given sides at
// instant t; if healAt is non-zero the partition heals then. Messages
// between different sides (including copies in flight) are dropped for
// the whole window.
func PartitionAt(eng *simkern.Engine, net *netsim.Network, t, healAt vtime.Time, sides ...[]int) {
	eng.Arm(t, eventq.ClassApp, eventq.Func(func() {
		net.SetPartition(sides...)
		eng.Recordf(monitor.KindFailureInjected, -1, "partition", "%v", sides)
	}), 0)
	if healAt > t {
		HealAt(eng, net, healAt)
	}
}

// HealAt schedules the heal of the network partition at instant t.
func HealAt(eng *simkern.Engine, net *netsim.Network, t vtime.Time) {
	eng.Arm(t, eventq.ClassApp, eventq.Func(func() {
		net.Heal()
		eng.Recordf(monitor.KindFailureInjected, -1, "heal", "")
	}), 0)
}

// OmissionEvery drops every k-th message matching the filter — a
// deterministic send-omission pattern. A nil filter matches everything.
type OmissionEvery struct {
	K      int
	Filter func(*netsim.Message) bool
	count  int
}

// Judge implements netsim.FaultHook.
func (o *OmissionEvery) Judge(m *netsim.Message) netsim.Verdict {
	if o.K <= 0 || (o.Filter != nil && !o.Filter(m)) {
		return netsim.Verdict{Fate: netsim.FateDeliver}
	}
	o.count++
	if o.count%o.K == 0 {
		return netsim.Verdict{Fate: netsim.FateDrop}
	}
	return netsim.Verdict{Fate: netsim.FateDeliver}
}

// OmissionFrom drops all messages sent by the given nodes (a fully
// send-omission-faulty process, the rbcast/consensus adversary).
type OmissionFrom struct {
	Nodes map[int]bool
	// Port, when non-empty, restricts the omissions to one service.
	Port string
}

// Judge implements netsim.FaultHook.
func (o *OmissionFrom) Judge(m *netsim.Message) netsim.Verdict {
	if o.Nodes[m.From] && (o.Port == "" || o.Port == m.Port) {
		return netsim.Verdict{Fate: netsim.FateDrop}
	}
	return netsim.Verdict{Fate: netsim.FateDeliver}
}

// Hooks chains fault hooks: the first non-deliver verdict wins.
type Hooks []netsim.FaultHook

// Judge implements netsim.FaultHook.
func (h Hooks) Judge(m *netsim.Message) netsim.Verdict {
	for _, hook := range h {
		if v := hook.Judge(m); v.Fate != netsim.FateDeliver {
			return v
		}
	}
	return netsim.Verdict{Fate: netsim.FateDeliver}
}
