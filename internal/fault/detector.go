package fault

import (
	"fmt"

	"hades/internal/eventq"
	"hades/internal/monitor"
	"hades/internal/netsim"
	"hades/internal/simkern"
	"hades/internal/vtime"
)

// The detector's timing is a constant of the model: every run beats at
// the same period and charges the same handling cost.
const (
	// HeartbeatPeriod is the heartbeat period: each monitored node sends
	// one heartbeat to every other and checks its timeouts once per
	// period.
	HeartbeatPeriod = 10 * vtime.Millisecond
	// heartbeatMargin is added to HeartbeatPeriod plus the link delay
	// bound to form the suspicion timeout.
	heartbeatMargin = 500 * vtime.Microsecond
	// heartbeatWProc is the CPU cost of handling one heartbeat.
	heartbeatWProc = 5 * vtime.Microsecond
)

// DetectorConfig parameterises the heartbeat fault detector.
type DetectorConfig struct {
	// Nodes lists the monitored processors.
	Nodes []int
	// Port scopes the heartbeat traffic. Detectors coexisting on the
	// same nodes (e.g. one per membership group) need distinct ports —
	// netsim binds one handler per (node, port), so a shared port
	// would let the last detector steal the others' heartbeats. Empty
	// selects the default "fault.heartbeat".
	Port string
}

// DefaultDetectorConfig returns a detector monitoring nodes on the
// default heartbeat port.
func DefaultDetectorConfig(nodes []int) DetectorConfig {
	return DetectorConfig{Nodes: nodes}
}

// Suspicion is one detection record.
type Suspicion struct {
	Observer int
	Suspect  int
	At       vtime.Time
}

// Rehabilitation is one un-suspicion record: the observer saw a
// heartbeat from (or a recovery of) a previously suspected peer.
type Rehabilitation struct {
	Observer int
	Peer     int
	At       vtime.Time
}

// Detector is the heartbeat-based fault detection service of §2.2.1.
type Detector struct {
	eng *simkern.Engine
	net *netsim.Network
	cfg DetectorConfig

	lastBeat  map[int]map[int]vtime.Time // observer → peer → last heartbeat
	suspected map[int]map[int]bool
	onSuspect func(Suspicion)
	onRehab   func(observer, peer int)

	// Suspicions records every detection for the harness.
	Suspicions []Suspicion
	// Rehabilitations records every un-suspicion for the harness.
	Rehabilitations []Rehabilitation
}

const defaultBeatPort = "fault.heartbeat"

// beatPort returns the detector's heartbeat port.
func (d *Detector) beatPort() string {
	if d.cfg.Port != "" {
		return d.cfg.Port
	}
	return defaultBeatPort
}

// NewDetector creates (but does not start) a detector. onSuspect, if
// non-nil, fires at each new suspicion.
func NewDetector(eng *simkern.Engine, net *netsim.Network, cfg DetectorConfig, onSuspect func(Suspicion)) *Detector {
	d := &Detector{
		eng:       eng,
		net:       net,
		cfg:       cfg,
		lastBeat:  make(map[int]map[int]vtime.Time),
		suspected: make(map[int]map[int]bool),
		onSuspect: onSuspect,
	}
	for _, n := range cfg.Nodes {
		d.lastBeat[n] = make(map[int]vtime.Time)
		d.suspected[n] = make(map[int]bool)
	}
	for _, n := range cfg.Nodes {
		node := n
		net.Bind(node, d.beatPort(), func(m *netsim.Message) { d.receive(node, m) })
	}
	// A recovering observer's heartbeat bookkeeping is stale (it
	// stopped hearing peers when it crashed): without a reset it would
	// mass-suspect every live peer at its first check tick. Recovery
	// therefore restarts the observer's grace window and rehabilitates
	// any suspicions it held from before the crash.
	net.OnDownChange(func(node int, down bool) {
		if down || d.lastBeat[node] == nil {
			return
		}
		d.observerRecovered(node)
	})
	return d
}

// observerRecovered resets a recovered observer: fresh heartbeat
// deadlines for every peer and deterministic rehabilitation of the
// suspicions it held when it crashed.
func (d *Detector) observerRecovered(node int) {
	now := d.eng.Now()
	for _, p := range d.cfg.Nodes {
		if p == node {
			continue
		}
		d.lastBeat[node][p] = now
		if d.suspected[node][p] {
			d.rehabilitate(node, p)
		}
	}
}

// Timeout returns the suspicion timeout an observer applies to a peer.
func (d *Detector) Timeout(observer, peer int) vtime.Duration {
	dmax, _ := d.net.DelayBound(peer, observer)
	return HeartbeatPeriod + dmax + d.net.WorstCaseReceivePath() + heartbeatMargin
}

// Start begins heartbeating and monitoring.
func (d *Detector) Start() {
	now := d.eng.Now()
	for _, n := range d.cfg.Nodes {
		for _, p := range d.cfg.Nodes {
			if n != p {
				d.lastBeat[n][p] = now
			}
		}
	}
	d.eng.Arm(now.Add(HeartbeatPeriod), eventq.ClassApp, heartbeat{d}, 0)
}

// heartbeat is the detector as the handler of its periodic round.
type heartbeat struct{ d *Detector }

// Fire sends every live node's heartbeats, checks every timeout and
// arms the next round.
func (h heartbeat) Fire(uint64) {
	d := h.d
	now := d.eng.Now()
	// Send heartbeats.
	for _, src := range d.cfg.Nodes {
		if d.net.NodeDown(src) {
			continue
		}
		for _, dst := range d.cfg.Nodes {
			if dst == src {
				continue
			}
			if _, err := d.net.Send(src, dst, d.beatPort(), src, 8); err != nil {
				continue
			}
		}
	}
	// Check timeouts.
	for _, obs := range d.cfg.Nodes {
		if d.net.NodeDown(obs) {
			continue
		}
		for _, peer := range d.cfg.Nodes {
			if peer == obs || d.suspected[obs][peer] {
				continue
			}
			silent := now.Sub(d.lastBeat[obs][peer])
			if silent > d.Timeout(obs, peer) {
				d.suspect(obs, peer, silent)
			}
		}
	}
	d.eng.Arm(now.Add(HeartbeatPeriod), eventq.ClassApp, h, 0)
}

func (d *Detector) suspect(obs, peer int, silent vtime.Duration) {
	d.suspected[obs][peer] = true
	s := Suspicion{Observer: obs, Suspect: peer, At: d.eng.Now()}
	d.Suspicions = append(d.Suspicions, s)
	d.eng.Recordf(monitor.KindFailureDetected, obs, fmt.Sprintf("n%d", peer), "silent=%s", silent)
	if d.onSuspect != nil {
		d.onSuspect(s)
	}
}

func (d *Detector) receive(node int, m *netsim.Message) {
	if d.net.NodeDown(node) {
		return
	}
	d.eng.Processors()[node].RaiseIRQ(simkern.IRQHeartbeat, heartbeatWProc, nil, 0)
	peer, ok := m.Payload.(int)
	if !ok {
		return
	}
	d.lastBeat[node][peer] = d.eng.Now()
	if d.suspected[node][peer] {
		d.rehabilitate(node, peer)
	}
}

// rehabilitate clears a suspicion, records it, and notifies the
// OnRehabilitate callback (membership uses it as the rejoin trigger).
func (d *Detector) rehabilitate(obs, peer int) {
	d.suspected[obs][peer] = false
	r := Rehabilitation{Observer: obs, Peer: peer, At: d.eng.Now()}
	d.Rehabilitations = append(d.Rehabilitations, r)
	d.eng.Recordf(monitor.KindRehabilitation, obs, fmt.Sprintf("n%d", peer), "")
	if d.onRehab != nil {
		d.onRehab(obs, peer)
	}
}

// OnRehabilitate installs the callback fired at each rehabilitation.
func (d *Detector) OnRehabilitate(fn func(observer, peer int)) { d.onRehab = fn }

// Suspected reports whether observer currently suspects peer.
func (d *Detector) Suspected(observer, peer int) bool { return d.suspected[observer][peer] }
