// Package consensus implements the consensus service of §2.2.1 as a
// round-based synchronous protocol (FloodSet) tolerating up to f crash
// or send-omission failures.
//
// Every process starts with a proposal; in each of f+1 rounds it
// broadcasts the set of values it has seen; after round f+1 every
// correct process decides the minimum of its set. In a synchronous
// system (which the simulated network's bounded delays provide) this
// guarantees agreement, validity and termination in exactly f+1 rounds —
// and, crucially for HADES, a *time bound*: decision happens at
// T0 + (f+1)·R, a constant that can enter a feasibility test.
package consensus

import (
	"maps"
	"slices"

	"hades/internal/eventq"
	"hades/internal/netsim"
	"hades/internal/simkern"
	"hades/internal/vtime"
)

// Config parameterises one consensus instance.
type Config struct {
	// Nodes lists the participants.
	Nodes []int
	// F is the number of crash/omission failures tolerated; the
	// protocol runs F+1 rounds.
	F int
	// Round is the round length; it must exceed the worst-case link
	// delay plus processing.
	Round vtime.Duration
	// WProc is the per-message processing cost.
	WProc vtime.Duration
}

// DefaultConfig sizes rounds from network bounds.
func DefaultConfig(net *netsim.Network, nodes []int, f int) Config {
	var dmax vtime.Duration
	for _, a := range nodes {
		for _, b := range nodes {
			if a == b {
				continue
			}
			if d, ok := net.DelayBound(a, b); ok && d > dmax {
				dmax = d
			}
		}
	}
	return Config{
		Nodes: nodes,
		F:     f,
		Round: dmax + net.WorstCaseReceivePath() + 50*vtime.Microsecond,
		WProc: 8 * vtime.Microsecond,
	}
}

// Result is one node's decision.
type Result struct {
	Node      int
	Decision  int64
	DecidedAt vtime.Time
	Rounds    int
}

// Instance is one run of consensus.
type Instance struct {
	eng  *simkern.Engine
	net  *netsim.Network
	cfg  Config
	port string

	sets    map[int]map[int64]bool // node → seen values
	decided map[int]Result
	done    func(Result)
	round   int
}

// New creates a consensus instance with the given unique name.
// onDecide, if non-nil, fires once per correct node as it decides.
func New(eng *simkern.Engine, net *netsim.Network, name string, cfg Config, onDecide func(Result)) *Instance {
	c := &Instance{
		eng:     eng,
		net:     net,
		cfg:     cfg,
		port:    "consensus." + name,
		sets:    make(map[int]map[int64]bool),
		decided: make(map[int]Result),
		done:    onDecide,
	}
	for _, n := range cfg.Nodes {
		node := n
		net.Bind(node, c.port, func(m *netsim.Message) { c.receive(node, m) })
	}
	return c
}

// Propose starts the protocol with each node's initial value (map keyed
// by node). Nodes absent from proposals abstain (treated as crashed from
// the start).
func (c *Instance) Propose(proposals map[int]int64) {
	for _, n := range c.cfg.Nodes {
		if v, ok := proposals[n]; ok {
			c.sets[n] = map[int64]bool{v: true}
		}
	}
	c.runRound(1)
}

// runRound executes round r: everyone floods its set, then the next
// round (or the decision) is scheduled one round length later.
func (c *Instance) runRound(r int) {
	c.round = r
	for _, src := range c.cfg.Nodes {
		set := c.sets[src]
		if set == nil || c.net.NodeDown(src) {
			continue
		}
		vals := slices.Sorted(maps.Keys(set))
		for _, dst := range c.cfg.Nodes {
			if dst == src {
				continue
			}
			if _, err := c.net.Send(src, dst, c.port, vals, 8*len(vals)); err != nil {
				continue
			}
		}
	}
	c.eng.Arm(c.eng.Now().Add(c.cfg.Round), eventq.ClassApp, eventq.Func(func() {
		if r < c.cfg.F+1 {
			c.runRound(r + 1)
			return
		}
		c.decide()
	}), 0)
}

// receive merges a peer's value set.
func (c *Instance) receive(node int, m *netsim.Message) {
	if c.net.NodeDown(node) || c.sets[node] == nil {
		return
	}
	vals, ok := m.Payload.([]int64)
	if !ok {
		return
	}
	if c.cfg.WProc > 0 {
		c.eng.Processors()[node].RaiseIRQ("consensus", c.cfg.WProc, nil, 0)
	}
	for _, v := range vals {
		c.sets[node][v] = true
	}
}

// decide has every correct participant decide min(set).
func (c *Instance) decide() {
	now := c.eng.Now()
	for _, n := range c.cfg.Nodes {
		set := c.sets[n]
		if set == nil || c.net.NodeDown(n) {
			continue
		}
		vals := slices.Sorted(maps.Keys(set))
		res := Result{Node: n, Decision: vals[0], DecidedAt: now, Rounds: c.round}
		c.decided[n] = res
		if c.done != nil {
			c.done(res)
		}
	}
}

// Decisions returns the decisions of all nodes that decided.
func (c *Instance) Decisions() map[int]Result {
	return maps.Clone(c.decided)
}

// Bound returns the decision-time bound (f+1)·R.
func (c *Instance) Bound() vtime.Duration {
	return vtime.Duration(c.cfg.F+1) * c.cfg.Round
}
