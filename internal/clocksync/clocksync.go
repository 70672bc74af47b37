// Package clocksync implements the clock synchronisation service of
// §2.2.1, following the fault-tolerant averaging algorithm of Lundelius
// and Lynch [LL88] that Figure 1 names explicitly.
//
// Every node owns a drifting hardware clock; a synchronisation round
// runs every resyncPeriod: nodes exchange clock readings, estimate every
// peer's clock (compensating the expected link delay), discard the f
// lowest and f highest estimates and slew the logical clock to the
// midpoint of the surviving range. With n ≥ 3f+1 nodes the algorithm
// tolerates f Byzantine clocks — the paper's §2.1 failure model assigns
// clocks exactly this failure mode — and keeps correct logical clocks
// within a bounded precision of each other.
//
// The achievable steady-state precision for this family of algorithms
// is Θ(ε + ρ·P), with ε the delay-reading uncertainty, ρ the drift
// bound, and P the resync period; Bound() returns the constant-4
// envelope (4ε + 4ρP) that experiment E-X3 checks measured precision
// against.
package clocksync

import (
	"fmt"
	"math/rand"
	"slices"

	"hades/internal/eventq"
	"hades/internal/monitor"
	"hades/internal/netsim"
	"hades/internal/simkern"
	"hades/internal/vtime"
)

// A round's timing and cost are constants of the model.
const (
	// resyncPeriod is the resynchronisation period P.
	resyncPeriod = 100 * vtime.Millisecond
	// collectWindow is how long after a round starts readings are
	// accepted before the correction applies; it exceeds the worst-case
	// link delay of every network the service runs on.
	collectWindow = 2 * vtime.Millisecond
	// wSync is the CPU cost of one round's processing on each node,
	// charged at interrupt level like any kernel activity (§4.2).
	wSync = 20 * vtime.Microsecond
)

// Config parameterises the service.
type Config struct {
	// Nodes lists the participating processor IDs.
	Nodes []int
	// F is the number of Byzantine clocks tolerated; requires
	// len(Nodes) ≥ 3F+1.
	F int
	// MaxDrift is the drift bound ρ (e.g. 1e-5 = 10 µs/s).
	MaxDrift float64
}

// DefaultConfig returns a configuration for n nodes tolerating f
// Byzantine clocks.
func DefaultConfig(nodes []int, f int) Config {
	return Config{Nodes: nodes, F: f, MaxDrift: 1e-5}
}

// port carries clock readings.
const port = "clocksync"

// NodeClock is one node's hardware clock plus the correction the
// algorithm maintains.
type NodeClock struct {
	offset     vtime.Duration // initial offset
	drift      float64        // actual drift in [-ρ, ρ]
	correction vtime.Duration

	// byzantine, when non-nil, replaces outgoing readings (two-faced:
	// the function sees the destination).
	byzantine func(dst int, true_ vtime.Time) vtime.Time

	estimates map[int]vtime.Time // peer → estimated logical clock at collect
}

// hardware returns the raw hardware clock at real (virtual) time t.
func (c *NodeClock) hardware(t vtime.Time) vtime.Time {
	return vtime.Time(float64(t)*(1+c.drift)) + vtime.Time(c.offset)
}

// logical returns the synchronised logical clock at real time t.
func (c *NodeClock) logical(t vtime.Time) vtime.Time {
	return c.hardware(t).Add(c.correction)
}

// Service is the clock synchronisation service instance.
type Service struct {
	eng    *simkern.Engine
	net    *netsim.Network
	cfg    Config
	clocks map[int]*NodeClock
	rounds int

	// History records the measured precision after each round.
	History []vtime.Duration
}

// New creates the service and initialises hardware clocks with
// deterministic random offsets (±500 µs) and drifts (±ρ).
func New(eng *simkern.Engine, net *netsim.Network, cfg Config) (*Service, error) {
	if len(cfg.Nodes) < 3*cfg.F+1 {
		return nil, fmt.Errorf("clocksync: need n >= 3f+1 nodes, got n=%d f=%d", len(cfg.Nodes), cfg.F)
	}
	s := &Service{eng: eng, net: net, cfg: cfg, clocks: make(map[int]*NodeClock)}
	rng := eng.Rand()
	for _, n := range cfg.Nodes {
		s.clocks[n] = &NodeClock{
			offset:    vtime.Duration(rng.Int63n(int64(vtime.Millisecond))) - 500*vtime.Microsecond,
			drift:     (rng.Float64()*2 - 1) * cfg.MaxDrift,
			estimates: make(map[int]vtime.Time),
		}
	}
	for _, n := range cfg.Nodes {
		node := n
		net.Bind(node, port, func(m *netsim.Message) { s.receive(node, m) })
	}
	return s, nil
}

// Rounds returns the number of completed synchronisation rounds.
func (s *Service) Rounds() int { return s.rounds }

// MakeByzantine turns a node's clock Byzantine: readings sent to peers
// are replaced by fn (which may answer differently per destination,
// the strongest clock failure of the §2.1 model).
func (s *Service) MakeByzantine(node int, fn func(dst int, true_ vtime.Time) vtime.Time) {
	s.clocks[node].byzantine = fn
}

// TwoFacedByzantine is a canonical adversarial clock: it reports
// +spread to even-numbered destinations and −spread to odd ones.
func TwoFacedByzantine(spread vtime.Duration, rng *rand.Rand) func(int, vtime.Time) vtime.Time {
	return func(dst int, t vtime.Time) vtime.Time {
		if dst%2 == 0 {
			return t.Add(spread)
		}
		return t.Add(-spread)
	}
}

// Start schedules the periodic resynchronisation.
func (s *Service) Start() {
	s.eng.Arm(s.eng.Now().Add(resyncPeriod), eventq.ClassApp, resync{s}, 0)
}

// resync is the service as the handler of its periodic rounds.
type resync struct{ s *Service }

// Fire begins a round: every node broadcasts its reading, then applies
// the convergence function after the collect window. It arms the next
// round.
func (r resync) Fire(uint64) {
	s := r.s
	now := s.eng.Now()
	for _, src := range s.cfg.Nodes {
		c := s.clocks[src]
		if s.net.NodeDown(src) {
			continue
		}
		// Own estimate: exact.
		c.estimates = map[int]vtime.Time{src: c.logical(now)}
		for _, dst := range s.cfg.Nodes {
			if dst == src {
				continue
			}
			reading := c.logical(now)
			if c.byzantine != nil {
				reading = c.byzantine(dst, reading)
			}
			if _, err := s.net.Send(src, dst, port, reading, 16); err != nil {
				// Unconnected peers simply contribute no estimate.
				continue
			}
		}
	}
	s.eng.Arm(now.Add(collectWindow), eventq.ClassApp, eventq.Func(s.converge), 0)
	s.eng.Arm(now.Add(resyncPeriod), eventq.ClassApp, r, 0)
}

// receive stores the estimate of the sender's logical clock: the
// carried reading plus the midpoint of the link delay bounds (the
// classic delay-compensation estimator whose error is ε/2).
func (s *Service) receive(node int, m *netsim.Message) {
	c := s.clocks[node]
	if c == nil || s.net.NodeDown(node) {
		return
	}
	reading, ok := m.Payload.(vtime.Time)
	if !ok {
		return
	}
	dmin, dmax, _ := s.net.DelayBounds(m.From, node)
	est := reading.Add((dmin + dmax) / 2) // midpoint estimator, error ≤ ε/2
	c.estimates[m.From] = est
	// Charge the processing cost like a kernel activity.
	s.eng.Processors()[node].RaiseIRQ(simkern.IRQClockSync, wSync, nil, 0)
}

// converge applies the fault-tolerant midpoint to every correct node.
func (s *Service) converge() {
	now := s.eng.Now()
	for _, n := range s.cfg.Nodes {
		c := s.clocks[n]
		if s.net.NodeDown(n) {
			continue
		}
		ests := make([]vtime.Time, 0, len(c.estimates))
		for _, e := range c.estimates {
			ests = append(ests, e)
		}
		if len(ests) <= 2*s.cfg.F {
			continue // not enough readings this round
		}
		slices.Sort(ests)
		trimmed := ests[s.cfg.F : len(ests)-s.cfg.F]
		mid := trimmed[0] + (trimmed[len(trimmed)-1]-trimmed[0])/2
		c.correction += mid.Sub(c.logical(now))
	}
	s.rounds++
	p := s.Precision()
	s.History = append(s.History, p)
	s.eng.Recordf(monitor.KindClockSyncRound, -1, "clocksync", "round=%d precision=%s", s.rounds, p)
}

// Precision returns the current maximum logical-clock skew between any
// two correct (non-Byzantine, non-crashed) nodes.
func (s *Service) Precision() vtime.Duration {
	now := s.eng.Now()
	var lo, hi vtime.Time
	first := true
	for _, n := range s.cfg.Nodes {
		c := s.clocks[n]
		if c.byzantine != nil || s.net.NodeDown(n) {
			continue
		}
		l := c.logical(now)
		if first {
			lo, hi = l, l
			first = false
			continue
		}
		if l < lo {
			lo = l
		}
		if l > hi {
			hi = l
		}
	}
	return hi.Sub(lo)
}

// Bound returns the steady-state precision envelope 4ε + 4ρP, where ε
// is the reading uncertainty (half the delay spread, both directions).
func (s *Service) Bound() vtime.Duration {
	var eps vtime.Duration
	for _, a := range s.cfg.Nodes {
		for _, b := range s.cfg.Nodes {
			if a == b {
				continue
			}
			if dmax, ok := s.net.DelayBound(a, b); ok && dmax > eps {
				eps = dmax
			}
		}
	}
	drift := vtime.Duration(4 * s.cfg.MaxDrift * float64(resyncPeriod))
	return 4*eps + drift
}
