// Package rbcast implements the time-bounded reliable broadcast and
// multicast primitives of §2.2.1 ("time-bounded reliable communication
// primitives ... Rel. Bcast and Rel. Mcast" in Figure 1).
//
// The algorithm is synchronous flooding: the origin sends in round 0;
// every process that first receives a message in round r < f+1 relays it
// in round r+1; every process delivers at the fixed instant T0 +
// (f+1)·R, where R (the round length) exceeds the worst-case link delay
// plus receive-path processing. With at most f processes suffering send
// omissions, this guarantees:
//
//	validity   — a correct origin's message is delivered by all correct
//	             processes;
//	agreement  — if any correct process delivers m, all correct
//	             processes deliver m;
//	integrity  — m is delivered at most once, only if broadcast;
//	timeliness — delivery happens exactly Δ = (f+1)·R after initiation,
//	             the "time-bounded" half of the service contract.
//
// Delivery at a *fixed* instant (rather than on receipt) is what makes
// the primitive composable with scheduling analysis: the bound Δ enters
// a feasibility test as a constant. The same fixed-instant discipline
// yields virtual-synchronous flushing for free: SetEpoch marks a view
// boundary, and a copy whose epoch tag is stale at its delivery instant
// is discarded identically at every member (delivered-or-discarded
// consistently — see Service.SetEpoch).
package rbcast

import (
	"hades/internal/eventq"
	"hades/internal/metrics"
	"hades/internal/monitor"
	"hades/internal/netsim"
	"hades/internal/simkern"
	"hades/internal/vtime"
)

// Config parameterises the primitive.
type Config struct {
	// Group lists the participating processor IDs.
	Group []int
	// F is the number of omission-faulty processes tolerated.
	F int
	// Round is the round length R; it must exceed the worst-case link
	// delay plus the receive path cost.
	Round vtime.Duration
	// WProc is the per-message processing cost charged on relays.
	WProc vtime.Duration
}

// DefaultConfig sizes the round length from the network's delay bounds.
func DefaultConfig(net *netsim.Network, group []int, f int) Config {
	var dmax vtime.Duration
	for _, a := range group {
		for _, b := range group {
			if a == b {
				continue
			}
			if d, ok := net.DelayBound(a, b); ok && d > dmax {
				dmax = d
			}
		}
	}
	return Config{
		Group: group,
		F:     f,
		Round: dmax + net.WorstCaseReceivePath() + 50*vtime.Microsecond,
		WProc: 10 * vtime.Microsecond,
	}
}

// Delivery is one delivered message at one process.
type Delivery struct {
	Origin  int
	Seq     uint64
	Payload any
	// At is the delivery instant; Latency is At minus the broadcast
	// initiation.
	At      vtime.Time
	Latency vtime.Duration
}

// Service is a reliable-broadcast endpoint set over one group.
type Service struct {
	eng *simkern.Engine
	net *netsim.Network
	cfg Config

	nextSeq   uint64
	seen      map[copyKey]bool // per-node first-seen marker
	handlers  map[int]func(Delivery)
	port      string
	delivered map[msgID][]int // message → nodes that delivered

	// mFanout counts flood copies put on the wire (the dissemination
	// cost signal); nil-safe when metrics are off.
	mFanout *metrics.Counter

	// epoch implements virtual-synchronous flushing at view boundaries:
	// broadcasts are tagged with the epoch current at initiation, and a
	// copy whose tag is stale at its (fixed) delivery instant is
	// discarded instead of delivered. Because every copy of a message
	// delivers at the same instant everywhere and epochs advance at
	// that same granularity, the deliver-or-discard decision is
	// identical at every member — no process acts on a pre-boundary
	// message that others flushed.
	epoch        uint64
	epochMembers map[int]bool

	// Deliveries records every delivery for verification; Flushed
	// counts copies discarded by the epoch boundary.
	Deliveries []Delivery
	Flushed    int
}

type flood struct {
	Origin  int
	Seq     uint64
	Epoch   uint64
	Payload any
	Round   int
	SentAt  vtime.Time
}

// msgID identifies one broadcast; copyKey one node's copy of it. Both
// are comparable structs rather than formatted strings: the seen-set
// lookup runs once per hop on the flooding hot path, and a struct key
// avoids the per-hop fmt.Sprintf allocation (see bench_test.go).
type msgID struct {
	origin int
	seq    uint64
}

type copyKey struct {
	msgID
	node int
}

// New creates a reliable broadcast service over the group. Distinct
// services must use distinct names (the name scopes the netsim port).
func New(eng *simkern.Engine, net *netsim.Network, name string, cfg Config) *Service {
	s := &Service{
		eng:       eng,
		net:       net,
		cfg:       cfg,
		seen:      make(map[copyKey]bool),
		handlers:  make(map[int]func(Delivery)),
		delivered: make(map[msgID][]int),
		port:      "rbcast." + name,
		mFanout:   eng.Metrics().Counter("rbcast.fanout"),
	}
	for _, n := range cfg.Group {
		node := n
		net.Bind(node, s.port, func(m *netsim.Message) { s.receive(node, m) })
	}
	return s
}

// OnDeliver installs a node's delivery handler.
func (s *Service) OnDeliver(node int, h func(Delivery)) { s.handlers[node] = h }

// SetEpoch advances the flushing epoch (a view boundary): broadcasts
// initiated from now on carry the new epoch, and pending copies tagged
// with an older epoch are discarded at their delivery instant rather
// than delivered. members, when non-nil, additionally restricts
// delivery to the given nodes (the new view's member set). Epoch 0
// (the default) disables flushing entirely.
func (s *Service) SetEpoch(epoch uint64, members []int) {
	s.epoch = epoch
	if members == nil {
		s.epochMembers = nil
		return
	}
	s.epochMembers = make(map[int]bool, len(members))
	for _, m := range members {
		s.epochMembers[m] = true
	}
}

// Delta returns the delivery bound Δ = (f+1)·R.
func (s *Service) Delta() vtime.Duration {
	return vtime.Duration(s.cfg.F+1) * s.cfg.Round
}

// Broadcast initiates a reliable broadcast from origin. It returns the
// message sequence number and the guaranteed delivery instant.
func (s *Service) Broadcast(origin int, payload any) (uint64, vtime.Time) {
	s.nextSeq++
	seq := s.nextSeq
	now := s.eng.Now()
	deliverAt := now.Add(s.Delta())
	f := flood{Origin: origin, Seq: seq, Epoch: s.epoch, Payload: payload, Round: 0, SentAt: now}
	s.accept(origin, f, deliverAt)
	s.relay(origin, f)
	return seq, deliverAt
}

// receive processes a flooded copy at node.
func (s *Service) receive(node int, m *netsim.Message) {
	if s.net.NodeDown(node) {
		return
	}
	f, ok := m.Payload.(flood)
	if !ok {
		return
	}
	if s.cfg.WProc > 0 {
		s.eng.Processors()[node].RaiseIRQ(simkern.IRQRBcast, s.cfg.WProc, nil, 0)
	}
	deliverAt := f.SentAt.Add(s.Delta())
	if !s.accept(node, f, deliverAt) {
		return // duplicate
	}
	if f.Round+1 <= s.cfg.F {
		next := f
		next.Round = f.Round + 1
		s.relay(node, next)
	}
}

// accept schedules delivery for a first-seen copy; returns false on
// duplicates (integrity). A copy that arrives past its delivery instant
// (the network overran the round bound Δ was sized from) is delivered
// at once and recorded as a violation: agreement holds — every node
// that sees the message still delivers it — and only this node's
// timeliness is lost.
func (s *Service) accept(node int, f flood, deliverAt vtime.Time) bool {
	k := copyKey{msgID: msgID{origin: f.Origin, seq: f.Seq}, node: node}
	if s.seen[k] {
		return false
	}
	s.seen[k] = true
	if now := s.eng.Now(); deliverAt < now {
		s.eng.Recordf(monitor.KindNetworkOmission, node, s.port,
			"origin=n%d seq=%d copy arrived %s past the delivery bound", f.Origin, f.Seq, now.Sub(deliverAt))
		deliverAt = now
	}
	s.eng.Arm(deliverAt, eventq.ClassApp, eventq.Func(func() {
		if s.net.NodeDown(node) {
			return
		}
		if f.Epoch != 0 && (f.Epoch < s.epoch || (s.epochMembers != nil && !s.epochMembers[node])) {
			// Virtual-synchrony flush: the view boundary passed (or the
			// node left the view) before this copy's delivery instant.
			s.Flushed++
			s.eng.Recordf(monitor.KindFlush, node, s.port, "origin=n%d seq=%d epoch=%d<%d", f.Origin, f.Seq, f.Epoch, s.epoch)
			return
		}
		d := Delivery{
			Origin:  f.Origin,
			Seq:     f.Seq,
			Payload: f.Payload,
			At:      deliverAt,
			Latency: deliverAt.Sub(f.SentAt),
		}
		s.Deliveries = append(s.Deliveries, d)
		dk := msgID{origin: f.Origin, seq: f.Seq}
		s.delivered[dk] = append(s.delivered[dk], node)
		s.eng.Recordf(monitor.KindDelivery, node, s.port, "origin=n%d seq=%d", f.Origin, f.Seq)
		if h := s.handlers[node]; h != nil {
			h(d)
		}
	}), 0)
	return true
}

// relay floods a copy to every other group member. The copy is boxed
// once: every destination's message carries the same payload.
func (s *Service) relay(from int, f flood) {
	var payload any = f
	for _, dst := range s.cfg.Group {
		if dst == from {
			continue
		}
		if _, err := s.net.Send(from, dst, s.port, payload, 32); err != nil {
			continue // unconnected: counts as omission, tolerated up to f
		}
		s.mFanout.Inc()
	}
}

// DeliveredAt returns the nodes that actually delivered (origin, seq),
// for agreement checking.
func (s *Service) DeliveredAt(origin int, seq uint64) []int {
	nodes := s.delivered[msgID{origin: origin, seq: seq}]
	out := make([]int, len(nodes))
	copy(out, nodes)
	return out
}
