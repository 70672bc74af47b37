// Package membership implements a view-synchronous group membership
// service — the middleware layer §2.2 of the paper presupposes between
// failure detection and the fault-tolerance services: replication
// failover is only predictable if every replica agrees on *who is in
// the group*, not just on its own detector's suspicions.
//
// The service turns local heartbeat suspicions into agreed, totally
// ordered views:
//
//   - View / Install reproduce the membership abstraction of §2.2.1:
//     a view is an agreed member set with a sequence number; installs
//     are the per-node adoption events.
//   - Suspicion → view change: a fault.Detector (§2.2.1 failure
//     detection) suspicion of a member triggers one consensus round
//     (internal/consensus, the §2.2.1 consensus service) among the
//     current members; each live member proposes its local estimate of
//     the membership, encoded as a bitmask, and the agreed decision
//     defines view v+1.
//   - Dissemination: the decided view is spread with the time-bounded
//     reliable broadcast (internal/rbcast, §2.2.1 Rel. Bcast), so all
//     live members install it at the *same* fixed instant — the
//     view-synchrony property replication failover relies on.
//   - Bound() composes the three service bounds into the provable
//     view-change bound: detector timeout (+ one check period) +
//     consensus decision bound (f+1)·Rc + broadcast delivery bound
//     Δ = (f+1)·Rb. Every uncontended install observes a latency at
//     most Bound() from the crash instant (§2.2's "time-bounded"
//     contract, so the bound can enter a feasibility test).
//   - Rejoin: a crashed node that recovers resumes heartbeating; the
//     detector rehabilitates it at each live observer, which triggers
//     a join view change. After the join view installs, the service
//     runs a state transfer from a live donor to the joiner for every
//     registered state provider (replication registers its replicated
//     state machine backed by internal/storage stable checkpoints).
//   - Primary partition: under a network partition only the side
//     holding a strict majority quorum of the previous view may decide
//     and install the next view; minority sides block — no view, so no
//     promotion — until the partition heals, at which point the
//     majority re-admits the minority through a merge view driven by
//     the ordinary rehabilitation→join path (including state
//     transfer). The quorum denominator is the previous view's members
//     that are not known-crashed: the simulation's perfect crash
//     detector lets plain crash churn keep its availability (any set
//     of survivors proceeds), while partitioned-but-alive members
//     always count, so no side of a split can outvote the other.
//   - Virtual synchrony: each agreed view advances the broadcast
//     flushing epoch (rbcast.SetEpoch), so copies initiated in the old
//     view but pending past the boundary are discarded identically at
//     every member instead of delivered into the new view.
//
// All decisions are functions of the deterministic engine: identical
// scenario + seed ⇒ identical view history at every node.
package membership

import (
	"fmt"
	"maps"
	"slices"

	"hades/internal/consensus"
	"hades/internal/eventq"
	"hades/internal/fault"
	"hades/internal/metrics"
	"hades/internal/monitor"
	"hades/internal/netsim"
	"hades/internal/rbcast"
	"hades/internal/simkern"
	"hades/internal/vtime"
)

// MaxMembers is the largest universe a group may have: a view proposal
// is an int64 bitmask for consensus whose bit i is the i-th node of the
// sorted universe, and the sign bit stays clear.
const MaxMembers = 63

// Config parameterises one membership group.
type Config struct {
	// Name scopes the group's network ports; distinct groups need
	// distinct names.
	Name string
	// Nodes is the universe of potential members (at most MaxMembers).
	Nodes []int
}

// tolerated is f, the number of crash/omission failures one agreement
// round tolerates. The consensus round that carries a view change is
// sized from the network's delay bounds (consensus.DefaultConfig).
const tolerated = 1

// viewChangeWProc is the per-message CPU cost a view change's relays
// and consensus rounds charge on members. It is zero: view changes are
// free of protocol CPU, although rbcast's and consensus's own defaults
// are 10 µs and 8 µs. Charging them would move every view-change
// latency; whether view-change traffic is admitted interference is a
// modelling decision of its own, not a default to change in passing.
const viewChangeWProc vtime.Duration = 0

// transferBytes is the on-wire size of one state-transfer snapshot.
const transferBytes = 64

// View is one agreed membership epoch: a totally ordered sequence
// number and the agreed member set (sorted).
type View struct {
	ID      uint64
	Members []int
}

// Contains reports whether node is a member of the view.
func (v View) Contains(node int) bool {
	for _, m := range v.Members {
		if m == node {
			return true
		}
	}
	return false
}

// String renders the view as "v3{0,2,3}".
func (v View) String() string {
	s := fmt.Sprintf("v%d{", v.ID)
	for i, m := range v.Members {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprint(m)
	}
	return s + "}"
}

// Install records one node adopting one view.
type Install struct {
	Node int
	View View
	At   vtime.Time
	// Latency is At minus the suspicion/rehabilitation instant that
	// caused the change (zero for the initial view).
	Latency vtime.Duration
}

// Transfer records one state-transfer message of the join protocol.
type Transfer struct {
	Key      string
	From, To int
}

// Merge records one partition merge: a view that re-admitted members
// which had been excluded while alive (a blocked minority side).
type Merge struct {
	// At is the merge view's install instant; HealAt the heal instant
	// of the partition that had excluded the members (zero when the
	// heal was never observed); Latency is At - HealAt.
	At         vtime.Time
	HealAt     vtime.Time
	Latency    vtime.Duration
	Readmitted []int
}

// stateHook is one registered application state to carry across joins.
type stateHook struct {
	key string
	// snapshot captures the state to ship to joiner; nil return skips
	// the transfer (the joiner does not hold this state).
	snapshot func(donor, joiner int) any
	restore  func(node int, data any)
}

// viewMsg is the rbcast payload installing a view.
type viewMsg struct {
	ID          uint64
	Members     []int
	TriggeredAt vtime.Time
	Reason      string
}

// xferMsg carries one state snapshot to a joiner.
type xferMsg struct {
	Key    string
	ViewID uint64
	Data   any
}

// Service is a running view-synchronous membership group.
type Service struct {
	eng *simkern.Engine
	net *netsim.Network
	cfg Config
	// universe is cfg.Nodes sorted: bit i of a view proposal is
	// universe[i].
	universe []int
	det      *fault.Detector
	rb       *rbcast.Service
	// xferPort carries state transfers to joining replicas.
	xferPort string

	started bool
	agreed  []View          // the totally ordered agreed view sequence
	current map[int]View    // per-node installed view
	done    map[uint64]bool // agreed-view completion guard

	inProgress    bool
	retryArmed    bool
	pendingRemove map[int]map[int]vtime.Time // suspect → observer → trigger instant
	pendingJoin   map[int]vtime.Time         // joiner → trigger instant

	// Primary-partition bookkeeping: spans with pending changes but no
	// majority side, per-node excluded-while-alive spans, and the last
	// observed heal instant (for merge latency).
	noQuorum      bool
	noQuorumSince vtime.Time
	noQuorumTotal vtime.Duration
	blockedSince  map[int]vtime.Time
	blockedMark   map[int]bool // excluded-while-alive, until re-admitted
	blockedTotal  map[int]vtime.Duration
	lastHeal      vtime.Time

	onChange []func(View)
	onMerge  []func(Merge)
	states   []stateHook

	// Installs, Transfers and Merges record every event for the harness.
	Installs  []Install
	Transfers []Transfer
	Merges    []Merge

	// Metrics-plane instruments (nil-safe when metrics are off):
	// suspicion arrivals and per-install view latency.
	mSuspicions *metrics.Counter
	mInstallLat *metrics.Hist
}

// New builds (but does not start) a membership service over the given
// universe of nodes. The service owns its heartbeat detector.
func New(eng *simkern.Engine, net *netsim.Network, cfg Config) (*Service, error) {
	if len(cfg.Nodes) < 2 {
		return nil, fmt.Errorf("membership: group %q needs at least 2 nodes", cfg.Name)
	}
	if len(cfg.Nodes) > MaxMembers {
		return nil, fmt.Errorf("membership: group %q has %d nodes, at most %d", cfg.Name, len(cfg.Nodes), MaxMembers)
	}
	universe := slices.Sorted(slices.Values(cfg.Nodes))
	for i := 1; i < len(universe); i++ {
		if universe[i] == universe[i-1] {
			return nil, fmt.Errorf("membership: duplicate node id %d in group %q", universe[i], cfg.Name)
		}
	}
	dcfg := fault.DefaultDetectorConfig(cfg.Nodes)
	// Scope the heartbeats per group: two groups sharing a node must not
	// steal each other's heartbeat bindings.
	dcfg.Port = "m." + cfg.Name + ".beat"

	rcfg := rbcast.DefaultConfig(net, cfg.Nodes, tolerated)
	rcfg.WProc = viewChangeWProc

	s := &Service{
		eng:           eng,
		net:           net,
		cfg:           cfg,
		universe:      universe,
		xferPort:      "m." + cfg.Name + ".xfer",
		rb:            rbcast.New(eng, net, "m."+cfg.Name, rcfg),
		current:       make(map[int]View),
		done:          make(map[uint64]bool),
		pendingRemove: make(map[int]map[int]vtime.Time),
		pendingJoin:   make(map[int]vtime.Time),
		blockedSince:  make(map[int]vtime.Time),
		blockedMark:   make(map[int]bool),
		blockedTotal:  make(map[int]vtime.Duration),
		mSuspicions:   eng.Metrics().Counter("member.suspicions"),
		mInstallLat:   eng.Metrics().Hist("member.install.latency"),
	}
	s.det = fault.NewDetector(eng, net, dcfg, s.handleSuspicion)
	s.det.OnRehabilitate(s.handleRehabilitation)
	for _, n := range cfg.Nodes {
		node := n
		s.rb.OnDeliver(node, func(d rbcast.Delivery) { s.deliverView(node, d) })
		net.Bind(node, s.xferPort, func(m *netsim.Message) { s.receiveTransfer(node, m) })
	}
	// A crash ends a blocked (excluded-while-alive) span; a recovery
	// while still excluded re-opens it (the node is blocked again, and
	// its eventual re-admission is still a merge). A heal marks the
	// merge-latency origin and gives pending changes a prompt chance
	// to find a quorum side again.
	net.OnDownChange(func(node int, down bool) {
		switch {
		case down:
			s.closeBlocked(node, eng.Now())
		case s.started && s.blockedMark[node] && !s.latest().Contains(node):
			if _, open := s.blockedSince[node]; !open {
				s.blockedSince[node] = eng.Now()
			}
		}
	})
	net.OnPartitionChange(func(partitioned bool) {
		if !partitioned {
			s.lastHeal = eng.Now()
			if s.started {
				s.maybeChange()
			}
		}
	})
	return s, nil
}

// Start installs the initial view (all of cfg.Nodes) at every node and
// starts the heartbeat detector. Register groups, state providers and
// handlers before calling it. Idempotent.
func (s *Service) Start() {
	if s.started {
		return
	}
	s.started = true
	now := s.eng.Now()
	v0 := View{ID: 1, Members: slices.Clone(s.universe)}
	s.agreed = append(s.agreed, v0)
	s.rb.SetEpoch(v0.ID, v0.Members)
	for _, n := range v0.Members {
		s.install(n, v0, now, now, "init")
	}
	for _, fn := range s.onChange {
		fn(v0)
	}
	s.det.Start()
}

// Detector returns the service's heartbeat detector.
func (s *Service) Detector() *fault.Detector { return s.det }

// Nodes returns the universe of potential members.
func (s *Service) Nodes() []int { return slices.Sorted(slices.Values(s.cfg.Nodes)) }

// Name returns the group name.
func (s *Service) Name() string { return s.cfg.Name }

// AgreedViews returns the totally ordered agreed view sequence.
func (s *Service) AgreedViews() []View {
	out := make([]View, len(s.agreed))
	copy(out, s.agreed)
	return out
}

// latest returns the latest agreed view (zero View before Start).
func (s *Service) latest() View {
	if len(s.agreed) == 0 {
		return View{}
	}
	return s.agreed[len(s.agreed)-1]
}

// Quorum returns the strict-majority quorum size a side must muster
// right now to install the next view under the primary-partition rule
// — counted, like the rule itself, over the latest agreed view's
// members that are not known-crashed.
func (s *Service) Quorum() int { return len(liveOf(s.net, s.latest()))/2 + 1 }

// NoQuorumTime returns the accumulated time during which membership
// changes were pending but no side held a majority quorum (a total
// block, e.g. a symmetric split).
func (s *Service) NoQuorumTime() vtime.Duration {
	total := s.noQuorumTotal
	if s.noQuorum {
		total += s.eng.Now().Sub(s.noQuorumSince)
	}
	return total
}

// blockedTime returns the time node spent excluded from the agreed
// view while alive (a partitioned minority member), up to now.
func (s *Service) blockedTime(node int) vtime.Duration {
	total := s.blockedTotal[node]
	if since, open := s.blockedSince[node]; open {
		total += s.eng.Now().Sub(since)
	}
	return total
}

// TotalBlockedTime sums blockedTime over the universe.
func (s *Service) TotalBlockedTime() vtime.Duration {
	var total vtime.Duration
	for _, n := range s.cfg.Nodes {
		total += s.blockedTime(n)
	}
	return total
}

// FlushedMessages returns the number of broadcast copies discarded by
// virtual-synchronous flushing at view boundaries.
func (s *Service) FlushedMessages() int { return s.rb.Flushed }

// CurrentView returns node's currently installed view (zero View if
// the node never installed one).
func (s *Service) CurrentView(node int) View { return s.current[node] }

// OnChange registers a handler fired once per agreed view, at the
// install instant (and once for the initial view at Start).
func (s *Service) OnChange(fn func(View)) { s.onChange = append(s.onChange, fn) }

// OnMerge registers a handler fired once per partition merge — an
// agreed view that re-admits members which had been blocked (excluded
// while alive). Merge views also fire OnChange like any other agreed
// view; this hook is for observers that care specifically about
// re-admissions (the Merge record carries who and the heal latency).
func (s *Service) OnMerge(fn func(Merge)) { s.onMerge = append(s.onMerge, fn) }

// HasQuorum reports whether node, by its own local knowledge — its
// installed view and its detector's current suspicions — can still
// reach a strict majority of that view's live members. A primary
// stranded on a minority side fails this as soon as its detector
// times out on the unreachable majority, and must stop serving (the
// stale-view rejection of the sharded request layer): any result it
// produced would be overwritten by the authoritative majority state
// at the merge. Known-crashed members leave the denominator, exactly
// as in the primary-partition rule, so plain crash churn never blocks
// a surviving majority.
func (s *Service) HasQuorum(node int) bool {
	v := s.current[node]
	if v.ID == 0 {
		return false
	}
	live, reach := 0, 0
	for _, m := range v.Members {
		if s.net.NodeDown(m) {
			continue
		}
		live++
		if m == node || !s.det.Suspected(node, m) {
			reach++
		}
	}
	return reach >= live/2+1
}

// RegisterState adds an application state to the join protocol:
// snapshot(donor, joiner) captures the donor-side state shipped to the
// joiner (nil skips), restore applies it on arrival. Replication
// registers its state machine here, backed by stable storage.
func (s *Service) RegisterState(key string, snapshot func(donor, joiner int) any, restore func(node int, data any)) {
	s.states = append(s.states, stateHook{key: key, snapshot: snapshot, restore: restore})
}

// detectionBound returns the worst-case crash-to-suspicion latency:
// the largest pairwise suspicion timeout plus one check period (the
// heartbeat period).
func (s *Service) detectionBound() vtime.Duration {
	var worst vtime.Duration
	for _, o := range s.cfg.Nodes {
		for _, p := range s.cfg.Nodes {
			if o == p {
				continue
			}
			if t := s.det.Timeout(o, p); t > worst {
				worst = t
			}
		}
	}
	return worst + fault.HeartbeatPeriod
}

// agreementBound returns the suspicion-to-install latency of one
// uncontended view change: the consensus decision bound plus the
// broadcast delivery bound Δ.
func (s *Service) agreementBound() vtime.Duration {
	return vtime.Duration(tolerated+1)*s.consensusRound() + s.rb.Delta()
}

// Bound returns the provable crash-to-install bound of one uncontended
// view change: detectionBound + agreementBound. Queued changes (a
// suspicion arriving while another change is in flight) serialise and
// may each add one agreementBound.
func (s *Service) Bound() vtime.Duration {
	return s.detectionBound() + s.agreementBound()
}

func (s *Service) consensusRound() vtime.Duration {
	return consensus.DefaultConfig(s.net, s.cfg.Nodes, tolerated).Round
}

// handleSuspicion queues a removal when a member suspects a member.
// The observer is recorded with the suspicion: under a partition only
// suspicions held by the majority side are actionable.
func (s *Service) handleSuspicion(sp fault.Suspicion) {
	if !s.started {
		return
	}
	s.mSuspicions.Inc()
	cur := s.agreed[len(s.agreed)-1]
	if !cur.Contains(sp.Suspect) || !cur.Contains(sp.Observer) {
		return
	}
	obs := s.pendingRemove[sp.Suspect]
	if obs == nil {
		obs = make(map[int]vtime.Time)
		s.pendingRemove[sp.Suspect] = obs
	}
	if _, dup := obs[sp.Observer]; dup {
		return
	}
	obs[sp.Observer] = sp.At
	s.maybeChange()
}

// handleRehabilitation queues a join when a member sees heartbeats
// from a live non-member again — the rejoin trigger.
func (s *Service) handleRehabilitation(observer, peer int) {
	if !s.started {
		return
	}
	cur := s.agreed[len(s.agreed)-1]
	if cur.Contains(peer) || !cur.Contains(observer) || s.net.NodeDown(peer) {
		return
	}
	if _, dup := s.pendingJoin[peer]; dup {
		return
	}
	s.pendingJoin[peer] = s.eng.Now()
	s.maybeChange()
}

// majorityCohort returns the side that may drive the next view change
// from v, or nil if none: the live (not known-crashed) members of v
// that can reach each other and form a strict majority of v's live
// members. With no partition that is simply every live member (crash
// churn keeps its availability — the simulation's perfect crash
// detector vouches that crashed members cannot form a rival primary).
// Under a partition, members are grouped by side; members on no listed
// side reach every side and count toward each cohort. The largest
// cohort wins (lowest side index on ties, deterministically).
func (s *Service) majorityCohort(v View) []int {
	var live []int
	for _, m := range v.Members {
		if !s.net.NodeDown(m) {
			live = append(live, m)
		}
	}
	if len(live) == 0 {
		return nil
	}
	need := len(live)/2 + 1
	if !s.net.PartitionActive() {
		return live
	}
	var unlisted []int
	bySide := make(map[int][]int)
	for _, m := range live {
		if sd, listed := s.net.Side(m); listed {
			bySide[sd] = append(bySide[sd], m)
		} else {
			unlisted = append(unlisted, m)
		}
	}
	if len(bySide) == 0 {
		return live // no member is behind the partition
	}
	var best []int
	for _, sd := range slices.Sorted(maps.Keys(bySide)) {
		cohort := append(append([]int{}, bySide[sd]...), unlisted...)
		if len(cohort) >= need && len(cohort) > len(best) {
			best = cohort
		}
	}
	slices.Sort(best)
	return best
}

// armRetry schedules one maybeChange retry a heartbeat period from now
// (deduplicated: at most one armed retry at a time).
func (s *Service) armRetry() {
	if s.retryArmed {
		return
	}
	s.retryArmed = true
	s.eng.After(fault.HeartbeatPeriod, eventq.ClassApp, func() {
		s.retryArmed = false
		s.maybeChange()
	})
}

// beginQuorumOutage opens the no-quorum span (idempotent).
func (s *Service) beginQuorumOutage(cur View) {
	if s.noQuorum {
		return
	}
	s.noQuorum = true
	s.noQuorumSince = s.eng.Now()
	s.eng.Recordf(monitor.KindQuorumBlocked, -1, s.cfg.Name,
		"no side holds %d of %s", len(liveOf(s.net, cur))/2+1, cur.String())
}

// endQuorumOutage closes the no-quorum span (idempotent).
func (s *Service) endQuorumOutage() {
	if !s.noQuorum {
		return
	}
	s.noQuorum = false
	s.noQuorumTotal += s.eng.Now().Sub(s.noQuorumSince)
}

// closeBlocked ends node's excluded-while-alive span at instant t.
func (s *Service) closeBlocked(node int, t vtime.Time) {
	if since, open := s.blockedSince[node]; open {
		s.blockedTotal[node] += t.Sub(since)
		delete(s.blockedSince, node)
	}
}

// maybeChange starts one view change for the queued removals and joins
// if none is in flight. Changes serialise: the next starts when the
// current view installs. The primary-partition rule gates the start: a
// change proceeds only when a majority cohort of the current view
// exists, removals are actionable only when a cohort member still
// holds the suspicion, and only cohort members propose.
func (s *Service) maybeChange() {
	if s.inProgress {
		return
	}
	cur := s.agreed[len(s.agreed)-1]
	if len(s.pendingRemove) == 0 && len(s.pendingJoin) == 0 {
		s.endQuorumOutage()
		return
	}
	cohort := s.majorityCohort(cur)
	if cohort == nil {
		// No side holds a majority quorum of the current view: every
		// side blocks (no view anywhere) until connectivity or
		// liveness changes.
		s.beginQuorumOutage(cur)
		s.armRetry()
		return
	}
	s.endQuorumOutage()
	inCohort := make(map[int]bool, len(cohort))
	for _, m := range cohort {
		inCohort[m] = true
	}

	var removes, adds []int
	trigger := vtime.Time(0)
	first := true
	take := func(at vtime.Time) {
		if first || at < trigger {
			trigger = at
		}
		first = false
	}
	for _, suspect := range slices.Sorted(maps.Keys(s.pendingRemove)) {
		if !cur.Contains(suspect) {
			delete(s.pendingRemove, suspect)
			continue
		}
		// Drop retracted suspicions (the observer rehabilitated the
		// peer, e.g. after a heal) and observers that left the view;
		// act only on suspicions held by the majority cohort.
		observers := s.pendingRemove[suspect]
		actionable := false
		for _, o := range slices.Sorted(maps.Keys(observers)) {
			if !cur.Contains(o) || !s.det.Suspected(o, suspect) {
				delete(observers, o)
				continue
			}
			if inCohort[o] {
				actionable = true
				take(observers[o])
			}
		}
		if len(observers) == 0 {
			delete(s.pendingRemove, suspect)
			continue
		}
		if actionable {
			removes = append(removes, suspect)
		}
	}
	for _, n := range slices.Sorted(maps.Keys(s.pendingJoin)) {
		switch {
		case cur.Contains(n) || s.net.NodeDown(n):
			delete(s.pendingJoin, n)
		case reachableFrom(s.net, cohort, n):
			adds = append(adds, n)
			take(s.pendingJoin[n])
		}
	}
	if len(removes) == 0 && len(adds) == 0 {
		return
	}

	// Each cohort member proposes its local membership estimate: the
	// current members it does not itself suspect, minus the triggering
	// removals, plus the joiners. Agreement then makes one of those
	// estimates the view — suspicions become *agreed* membership, the
	// point of the service.
	proposals := make(map[int]int64)
	for _, m := range cohort {
		if slices.Contains(removes, m) {
			continue
		}
		var mask int64
		for _, x := range cur.Members {
			if slices.Contains(removes, x) {
				continue
			}
			if x != m && s.det.Suspected(m, x) {
				continue
			}
			mask |= s.bit(x)
		}
		for _, a := range adds {
			mask |= s.bit(a)
		}
		proposals[m] = mask
	}
	if len(proposals) == 0 {
		// No cohort member to drive the change; retry a period later
		// (e.g. everyone crashed — nothing to agree until recovery).
		s.armRetry()
		return
	}

	s.inProgress = true
	newID := cur.ID + 1
	reason := changeReason(removes, adds)
	f := tolerated
	if f > len(cur.Members)-1 {
		f = len(cur.Members) - 1
	}
	ccfg := consensus.Config{
		Nodes: cur.Members,
		F:     f,
		Round: s.consensusRound(),
		WProc: viewChangeWProc,
	}
	decided := false
	trig := trigger
	inst := consensus.New(s.eng, s.net, fmt.Sprintf("m.%s.vc%d", s.cfg.Name, newID), ccfg, func(res consensus.Result) {
		if decided {
			return
		}
		// Split-brain gate: a decision defines the next view only if
		// the decider sits in a current majority cohort — a partition
		// striking mid-round must not let a minority-side estimate
		// become the agreed view.
		if !slices.Contains(s.majorityCohort(s.agreed[len(s.agreed)-1]), res.Node) {
			return
		}
		decided = true
		s.finishChange(newID, s.membersOf(res.Decision), trig, reason)
	})
	inst.Propose(proposals)
	// A partition striking mid-round can leave every decision rejected
	// by the gate above; re-arm so the change is retried rather than
	// wedged behind a dead consensus instance.
	s.eng.After(vtime.Duration(f+1)*ccfg.Round+vtime.Microsecond, eventq.ClassApp, func() {
		if !decided {
			s.inProgress = false
			s.maybeChange()
		}
	})
}

// finishChange runs at the consensus decision instant: the agreed view
// is fixed, appended to the total order, and disseminated with the
// time-bounded broadcast so every live node installs it at the same
// fixed instant Δ later.
func (s *Service) finishChange(id uint64, members []int, trigger vtime.Time, reason string) {
	if len(members) == 0 {
		// Degenerate decision (all proposers excluded everyone) —
		// abandon; retry so queued changes are not wedged.
		s.inProgress = false
		s.armRetry()
		return
	}
	cohort := s.majorityCohort(s.agreed[len(s.agreed)-1])
	v := View{ID: id, Members: members}
	s.agreed = append(s.agreed, v)
	// The broadcast origin must sit in the majority cohort: an origin
	// stranded on a minority side would install the view only there.
	origin := -1
	for _, m := range members {
		if !s.net.NodeDown(m) && (cohort == nil || slices.Contains(cohort, m)) {
			origin = m
			break
		}
	}
	if origin < 0 {
		for _, m := range members {
			if !s.net.NodeDown(m) {
				origin = m
				break
			}
		}
	}
	if origin < 0 {
		origin = members[0]
	}
	// Advance the virtual-synchrony epoch before disseminating: the
	// view message itself carries the new epoch, while copies still in
	// flight from the old view are flushed at their delivery instant.
	s.rb.SetEpoch(id, members)
	s.rb.Broadcast(origin, viewMsg{ID: id, Members: members, TriggeredAt: trigger, Reason: reason})
}

// deliverView handles one rbcast delivery of a view at one node.
func (s *Service) deliverView(node int, d rbcast.Delivery) {
	vm, ok := d.Payload.(viewMsg)
	if !ok {
		return
	}
	v := View{ID: vm.ID, Members: slices.Sorted(slices.Values(vm.Members))}
	s.completeChange(v, vm, d.At)
	if !v.Contains(node) {
		return // removed (or never-member) nodes do not install
	}
	if s.current[node].ID >= v.ID {
		return // stale duplicate
	}
	s.install(node, v, d.At, vm.TriggeredAt, vm.Reason)
}

// completeChange runs once per agreed view at its install instant:
// clears the pending queue entries it settled, schedules state
// transfers for joiners, fires OnChange, and chains the next queued
// change.
func (s *Service) completeChange(v View, vm viewMsg, at vtime.Time) {
	if s.done[v.ID] {
		return
	}
	s.done[v.ID] = true
	s.inProgress = false
	prev := View{}
	for _, a := range s.agreed {
		if a.ID == v.ID-1 {
			prev = a
		}
	}
	var joined, readmitted []int
	for _, m := range v.Members {
		delete(s.pendingJoin, m)
		if prev.ID != 0 && !prev.Contains(m) {
			joined = append(joined, m)
			if _, blocked := s.blockedSince[m]; blocked {
				readmitted = append(readmitted, m)
			}
		}
	}
	for _, m := range prev.Members {
		if !v.Contains(m) {
			delete(s.pendingRemove, m)
			// A member excluded while alive is a blocked minority
			// node: it holds its old view, installs nothing and
			// promotes nothing until a merge view re-admits it.
			if !s.net.NodeDown(m) {
				s.blockedMark[m] = true
				if _, open := s.blockedSince[m]; !open {
					s.blockedSince[m] = at
				}
			}
		}
	}
	// Suspicions held by ex-members are void with their membership.
	for suspect, observers := range s.pendingRemove {
		for o := range observers {
			if !v.Contains(o) {
				delete(observers, o)
			}
		}
		if len(observers) == 0 {
			delete(s.pendingRemove, suspect)
		}
	}
	if len(readmitted) > 0 {
		mg := Merge{At: at, HealAt: s.lastHeal, Readmitted: readmitted}
		if mg.HealAt > 0 && at >= mg.HealAt {
			mg.Latency = at.Sub(mg.HealAt)
		}
		s.Merges = append(s.Merges, mg)
		s.eng.Recordf(monitor.KindMerge, -1, s.cfg.Name, "%s readmits %v lat=%s", v.String(), readmitted, mg.Latency)
		for _, fn := range s.onMerge {
			fn(mg)
		}
	}
	if len(joined) > 0 && prev.ID != 0 {
		s.transferState(prev, v, joined)
	}
	for _, fn := range s.onChange {
		fn(v)
	}
	s.maybeChange()
}

// install records one node's adoption of a view.
func (s *Service) install(node int, v View, at, trigger vtime.Time, reason string) {
	s.closeBlocked(node, at)
	delete(s.blockedMark, node)
	s.current[node] = v
	in := Install{Node: node, View: v, At: at, Latency: at.Sub(trigger)}
	s.Installs = append(s.Installs, in)
	if v.ID != 1 {
		s.mInstallLat.ObserveD(in.Latency) // initial view: no change latency
	}
	s.eng.Recordf(monitor.KindViewChange, node, s.cfg.Name, "%s %s lat=%s", v.String(), reason, in.Latency)
}

// transferState ships every registered application state from a live
// donor of the previous view to each joiner — the state-transfer half
// of the join protocol.
func (s *Service) transferState(prev, v View, joined []int) {
	donor := -1
	for _, m := range prev.Members {
		if v.Contains(m) && !s.net.NodeDown(m) {
			donor = m
			break
		}
	}
	if donor < 0 {
		return
	}
	for _, j := range joined {
		for _, h := range s.states {
			data := h.snapshot(donor, j)
			if data == nil {
				continue
			}
			if _, err := s.net.Send(donor, j, s.xferPort, xferMsg{Key: h.key, ViewID: v.ID, Data: data}, transferBytes); err != nil {
				continue
			}
		}
	}
}

// receiveTransfer applies one arriving state snapshot at the joiner.
func (s *Service) receiveTransfer(node int, m *netsim.Message) {
	if s.net.NodeDown(node) {
		return
	}
	xm, ok := m.Payload.(xferMsg)
	if !ok {
		return
	}
	for _, h := range s.states {
		if h.key != xm.Key {
			continue
		}
		h.restore(node, xm.Data)
		s.Transfers = append(s.Transfers, Transfer{Key: xm.Key, From: m.From, To: node})
		s.eng.Recordf(monitor.KindStateTransfer, node, s.cfg.Name, "key=%s from=n%d view=%d", xm.Key, m.From, xm.ViewID)
	}
}

// changeReason renders the change as "remove n0" / "join n2" /
// "remove n0 join n2".
func changeReason(removes, adds []int) string {
	out := ""
	if len(removes) > 0 {
		out = "remove"
		for _, n := range removes {
			out += fmt.Sprintf(" n%d", n)
		}
	}
	if len(adds) > 0 {
		if out != "" {
			out += " "
		}
		out += "join"
		for _, n := range adds {
			out += fmt.Sprintf(" n%d", n)
		}
	}
	return out
}

// bit is node n's bit in a view proposal: its index in the sorted
// universe. Index order is node-id order, so consensus, which decides
// the smallest proposal, orders views as a bitset over node ids would.
func (s *Service) bit(n int) int64 {
	i, _ := slices.BinarySearch(s.universe, n)
	return 1 << i
}

// membersOf decodes a consensus decision bitmask into a member list,
// ascending.
func (s *Service) membersOf(mask int64) []int {
	var out []int
	for i, n := range s.universe {
		if mask&(1<<i) != 0 {
			out = append(out, n)
		}
	}
	return out
}

// liveOf returns the not-known-crashed members of v.
func liveOf(net *netsim.Network, v View) []int {
	var out []int
	for _, m := range v.Members {
		if !net.NodeDown(m) {
			out = append(out, m)
		}
	}
	return out
}

// reachableFrom reports whether some cohort member can reach node.
func reachableFrom(net *netsim.Network, cohort []int, node int) bool {
	for _, c := range cohort {
		if !net.Partitioned(c, node) {
			return true
		}
	}
	return len(cohort) == 0
}
