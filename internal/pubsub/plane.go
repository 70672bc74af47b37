package pubsub

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"hades/internal/eventq"
	"hades/internal/membership"
	"hades/internal/metrics"
	"hades/internal/monitor"
	"hades/internal/netsim"
	"hades/internal/rbcast"
	"hades/internal/replication"
	"hades/internal/session"
	"hades/internal/shard"
	"hades/internal/simkern"
	"hades/internal/trace"
	"hades/internal/vtime"
)

// Config parameterises one plane.
type Config struct {
	// Name scopes the plane's ports and metrics (the owning set name).
	Name string
	// ShardFor maps a topic name onto the ring.
	ShardFor func(topic string) int
	// Groups are the ring's shard groups, ring order.
	Groups []*shard.Group
	// Nodes is the cluster universe: every node eligible to host a
	// publisher or subscriber, and the best-effort broadcast group.
	Nodes []int
}

// bestEffortF is the omission degree of the best-effort broadcast.
const bestEffortF = 1

// Topic is one declared topic.
type Topic struct {
	name  string
	qos   QoS
	shard int
	gs    *groupState // nil for best-effort topics

	pubs []*Publisher
	subs []*Subscriber

	published, acked      int
	delivered, suppressed int
	replayed, dropped     int
	deadlineMiss          int
	mLat                  *metrics.Hist

	// applied counts the samples this plane's publish attempts saw apply
	// (first apply anywhere in the owning group); ackedUnapplied the acks
	// answered from a dedup entry no such apply stands behind. Verify
	// holds acked ≤ applied and ackedUnapplied = 0.
	applied, ackedUnapplied int
}

// Name returns the topic name.
func (t *Topic) Name() string { return t.name }

// pubAttempt tracks one publish end to end: the publisher owns it, the
// serving replica and the subscribers advance it (single-process
// simulation: the struct pointer is the cross-node handoff). It is the
// replication.Owner of every submission of its sample, so the owning
// group hands each apply back to it.
type pubAttempt struct {
	pub *Publisher
	s   Sample

	tr  *trace.Trace
	ref trace.Ref
	// wire is the publish→accept span, repl the replication round at
	// the serving replica.
	wire trace.SpanRef
	repl trace.SpanRef

	// server is the replica that admitted the publish (it acks and
	// opens the fan-out spans); outstanding counts subscribers whose
	// first delivery has not landed (-1 until the serving replica's
	// apply initialises it).
	server      int
	outstanding int
	acked       bool
	finished    bool
	done        func()
	// call is a reliable publish's session call, until the ack lands.
	call session.Handle

	// applied is set the first time the sample applies anywhere — the
	// plane's own account of what it admitted, as opposed to the tag
	// being present in the machine's dedup table.
	applied bool
}

// Applied runs the plane's apply at a replica that freshly applied the
// sample.
func (a *pubAttempt) Applied(node int, _ int64) { a.pub.p.onApply(node, a) }

// Replied: a publish is acked from its serving replica's apply, not from
// the replication reply.
func (*pubAttempt) Replied(int64, bool) {}

// complete lands the publish's ack (reliable) or origin delivery
// (best-effort): the one place a publish completes and its call ends.
func (a *pubAttempt) complete() {
	if a.acked {
		return
	}
	a.acked = true
	a.pub.acked++
	a.pub.t.acked++
	a.pub.p.sess.Finish(a.call)
	a.maybeFinish()
	if a.done != nil {
		a.done()
	}
}

// maybeFinish closes the publish trace once the ack landed and every
// counted fan-out delivery arrived. Exactly one path flips finished,
// so the trace is never finished twice (the tracer recycles traces).
func (a *pubAttempt) maybeFinish() {
	if a.finished || !a.acked || a.outstanding > 0 {
		return
	}
	a.finished = true
	a.tr.Finish()
}

// groupState is the plane's per-owning-group server state.
type groupState struct {
	p      *Plane
	g      *shard.Group
	topics []*Topic
	// inflight suppresses duplicate submissions of a tag already in the
	// replication pipeline.
	inflight map[replication.ClientSeq]bool
	// hist is each replica's durable history: node → topic → the last
	// HistoryDepth samples in apply order. Identical at every replica
	// that applied the same prefix; state transfer ships a donor's
	// copy to rejoiners.
	hist map[int]map[string][]Sample
}

// Messages. Payload structs carry attempt pointers: the plane is a
// single-process simulation, and the pointer is the propagation format,
// as it is for replication's per-op records.
type (
	pubMsg struct {
		Topic string
		Value int64
		Att   *pubAttempt
	}
	ackMsg struct {
		Att *pubAttempt
	}
	deliverMsg struct {
		S      Sample
		Sub    int
		Replay bool
		Span   trace.SpanRef
		Att    *pubAttempt
	}
	catchupMsg struct {
		Topic string
		Sub   int
	}
	catchupAck struct {
		Sub int
	}
	beMsg struct {
		S   Sample
		Att *pubAttempt
	}
)

// Plane is one pub/sub data-distribution plane over a shard set.
type Plane struct {
	eng *simkern.Engine
	net *netsim.Network
	cfg Config
	// reqPort, ackPort and subPort scope the plane's wire protocol by
	// its name.
	reqPort, ackPort, subPort string
	// sess runs the retry discipline of reliable publishes and late-
	// joiner catch-up: retransmit while unacked (primary down, quorum
	// lost, copy cut by a partition), park on an exhausted budget,
	// resubmit on the owning groups' views and on partition heals.
	sess *session.Engine

	topics map[string]*Topic
	order  []*Topic
	pubs   []*Publisher
	subs   []*Subscriber

	groups map[int]*groupState
	// subsAt dispatches the per-node deliver port; ackBound/subBound
	// track which nodes already have their port bound.
	subsAt   map[int][]*Subscriber
	ackBound map[int]bool
	subBound map[int]bool

	be *rbcast.Service

	nodeSet map[int]bool
	started bool
}

// NewPlane builds an empty plane over the given ring groups. Nothing
// is bound or hooked until the first topic is declared: a plane with
// no topics is behaviorally invisible.
func NewPlane(eng *simkern.Engine, net *netsim.Network, cfg Config) (*Plane, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("pubsub: plane needs a name")
	}
	if cfg.ShardFor == nil {
		return nil, fmt.Errorf("pubsub: plane %q needs a ring mapping", cfg.Name)
	}
	if len(cfg.Groups) == 0 {
		return nil, fmt.Errorf("pubsub: plane %q needs at least one replication group", cfg.Name)
	}
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("pubsub: plane %q needs a node universe", cfg.Name)
	}
	p := &Plane{
		eng:      eng,
		net:      net,
		cfg:      cfg,
		reqPort:  "pubsub." + cfg.Name + ".req",
		ackPort:  "pubsub." + cfg.Name + ".ack",
		subPort:  "pubsub." + cfg.Name + ".sub",
		sess:     session.New(eng),
		topics:   make(map[string]*Topic),
		groups:   make(map[int]*groupState),
		subsAt:   make(map[int][]*Subscriber),
		ackBound: make(map[int]bool),
		subBound: make(map[int]bool),
		nodeSet:  make(map[int]bool, len(cfg.Nodes)),
	}
	for _, n := range cfg.Nodes {
		p.nodeSet[n] = true
	}
	return p, nil
}

// Topic declares one topic under a QoS contract. Reliable topics bind
// the owning group's server side on first use.
func (p *Plane) Topic(name string, qos QoS) (*Topic, error) {
	if p.started {
		return nil, fmt.Errorf("pubsub: topic %q declared after the plane started", name)
	}
	if name == "" {
		return nil, fmt.Errorf("pubsub: topic needs a name")
	}
	if _, dup := p.topics[name]; dup {
		return nil, fmt.Errorf("pubsub: duplicate topic %q", name)
	}
	if qos.Reliability == 0 {
		qos.Reliability = Reliable
	}
	if err := qos.Validate(name); err != nil {
		return nil, err
	}
	t := &Topic{name: name, qos: qos, shard: p.cfg.ShardFor(name)}
	m := p.eng.Metrics()
	m.CounterFunc("pubsub."+name+".published", func() int64 { return int64(t.published) })
	m.CounterFunc("pubsub."+name+".delivered", func() int64 { return int64(t.delivered) })
	m.CounterFunc("pubsub."+name+".dropped", func() int64 { return int64(t.dropped) })
	m.CounterFunc("pubsub."+name+".deadline_miss", func() int64 { return int64(t.deadlineMiss) })
	t.mLat = m.Hist("pubsub." + name + ".latency")
	if qos.Reliability == Reliable {
		gs, err := p.group(t.shard)
		if err != nil {
			return nil, err
		}
		gs.topics = append(gs.topics, t)
		t.gs = gs
	}
	p.topics[name] = t
	p.order = append(p.order, t)
	return t, nil
}

// group lazily builds the server state of one owning group: request
// port on every replica, durable-history state transfer,
// the view/merge watchers, and the session engine's resubmission
// triggers (after onView, which clears the in-pipeline guard a
// resubmitted publish must get past).
func (p *Plane) group(idx int) (*groupState, error) {
	if gs := p.groups[idx]; gs != nil {
		return gs, nil
	}
	i := slices.IndexFunc(p.cfg.Groups, func(g *shard.Group) bool { return g.Index() == idx })
	if i < 0 {
		return nil, fmt.Errorf("pubsub: plane %q has no replication group at ring position %d", p.cfg.Name, idx)
	}
	g := p.cfg.Groups[i]
	mem := g.Membership()
	gs := &groupState{
		p:        p,
		g:        g,
		inflight: make(map[replication.ClientSeq]bool),
		hist:     make(map[int]map[string][]Sample),
	}
	for _, n := range g.Nodes() {
		node := n
		p.net.Bind(node, p.reqPort, func(m *netsim.Message) { p.handleReq(gs, node, m) })
	}
	mem.RegisterState("pubsub."+p.cfg.Name+"."+g.Name(),
		func(donor, _ int) any { return gs.snapshot(donor) },
		func(node int, data any) { gs.restore(node, data) })
	mem.OnChange(func(v membership.View) { gs.onView(v) })
	mem.OnMerge(func(mg membership.Merge) { gs.onMerge(mg) })
	p.sess.WireViews(mem)
	if len(p.groups) == 0 {
		p.sess.WireHeals(p.net)
	}
	p.groups[idx] = gs
	return gs, nil
}

// PublisherAt registers a publisher for topic at node. The topic must
// be declared first — publishing into an undeclared topic is a
// configuration error, not a runtime drop.
func (p *Plane) PublisherAt(topic string, node int) (*Publisher, error) {
	t, err := p.endpoint("publisher", topic, node)
	if err != nil {
		return nil, err
	}
	pub := &Publisher{p: p, t: t, id: uint64(len(p.pubs)), node: node}
	if !p.ackBound[node] {
		p.ackBound[node] = true
		n := node
		p.net.Bind(n, p.ackPort, func(m *netsim.Message) { p.handleAck(n, m) })
	}
	t.pubs = append(t.pubs, pub)
	p.pubs = append(p.pubs, pub)
	return pub, nil
}

// SubscriberAt registers a subscriber for topic at node, active from
// the start of the run (SetJoinAt turns it into a late joiner).
func (p *Plane) SubscriberAt(topic string, node int) (*Subscriber, error) {
	t, err := p.endpoint("subscriber", topic, node)
	if err != nil {
		return nil, err
	}
	s := &Subscriber{p: p, t: t, id: len(p.subs), node: node, fanout: "fanout.n" + strconv.Itoa(node),
		active: true, seen: make(map[sampleKey]bool)}
	if !p.subBound[node] {
		p.subBound[node] = true
		n := node
		p.net.Bind(n, p.subPort, func(m *netsim.Message) { p.handleDeliver(n, m) })
	}
	t.subs = append(t.subs, s)
	p.subs = append(p.subs, s)
	p.subsAt[node] = append(p.subsAt[node], s)
	return s, nil
}

// endpoint validates one endpoint registration, loudly.
func (p *Plane) endpoint(kind, topic string, node int) (*Topic, error) {
	t := p.topics[topic]
	if t == nil {
		names := make([]string, 0, len(p.order))
		for _, d := range p.order {
			names = append(names, d.name)
		}
		return nil, fmt.Errorf("pubsub: %s for undeclared topic %q (declared topics: %s)",
			kind, topic, strings.Join(names, ", "))
	}
	if p.started {
		return nil, fmt.Errorf("pubsub: %s for topic %q registered after the plane started", kind, topic)
	}
	if !p.nodeSet[node] {
		return nil, fmt.Errorf("pubsub: %s for topic %q at unknown node %d", kind, topic, node)
	}
	return t, nil
}

// Start arms the plane: the best-effort broadcast service (when any
// best-effort topic exists) and the late-joiner schedules. Idempotent;
// the cluster calls it at run start.
func (p *Plane) Start() {
	if p.started {
		return
	}
	p.started = true
	needBE := false
	for _, t := range p.order {
		if t.qos.Reliability == BestEffort {
			needBE = true
		}
	}
	if needBE {
		cfg := rbcast.DefaultConfig(p.net, p.cfg.Nodes, bestEffortF)
		// The default round budgets one message's worst-case path.
		// Best-effort topics ride under open-loop storms where flood
		// copies queue behind each other on the receive CPUs, so pad the
		// round with a queueing allowance — the delivery bound must hold
		// for a copy that arrives behind a burst, not just a lone one.
		cfg.Round += 2 * vtime.Millisecond
		p.be = rbcast.New(p.eng, p.net, "pubsub."+p.cfg.Name, cfg)
		for _, n := range p.cfg.Nodes {
			node := n
			p.be.OnDeliver(node, func(d rbcast.Delivery) { p.onBE(node, d) })
		}
	}
	for _, s := range p.subs {
		if s.joinAt > 0 {
			s.active = false
			p.eng.Arm(s.joinAt, eventq.ClassApp, eventq.Func(s.join), 0)
		}
	}
}

// Topics returns the declared topics, declaration order.
func (p *Plane) Topics() []*Topic { return append([]*Topic(nil), p.order...) }

// ---------------------------------------------------------------------
// Publisher

// Publisher is one topic endpoint producing samples.
type Publisher struct {
	p    *Plane
	t    *Topic
	id   uint64
	node int

	seq       uint64
	published []Sample
	acked     int
}

// Publish produces one sample. Reliable topics submit it to the
// owning group as a session call that retires at the ack; best-effort
// topics broadcast fire-and-forget — neither path ever blocks the
// caller.
func (pub *Publisher) Publish(value int64) uint64 { return pub.PublishDone(value, nil) }

// PublishDone is Publish with a completion callback: invoked at the
// replication ack (reliable) or at the broadcast's origin delivery
// (best-effort). A sample lost to a best-effort drop never completes.
func (pub *Publisher) PublishDone(value int64, done func()) uint64 {
	p := pub.p
	pub.seq++
	s := Sample{Topic: pub.t.name, Pub: pub.id, Seq: pub.seq, Value: value, PublishedAt: p.eng.Now()}
	pub.published = append(pub.published, s)
	pub.t.published++

	tr := p.eng.Tracer().Begin("pubsub.publish", pub.t.shard)
	tr.SetLabelKey(pub.t.name, s.Seq, pub.node)
	att := &pubAttempt{pub: pub, s: s, tr: tr, ref: tr.Ref(), outstanding: -1, done: done}
	if pub.t.qos.Reliability == BestEffort {
		att.wire = att.ref.Span("rbcast", trace.LayerWire)
		if p.be == nil {
			panic("pubsub: best-effort publish before plane start")
		}
		p.be.Broadcast(pub.node, beMsg{S: s, Att: att})
		return s.Seq
	}

	att.wire = att.ref.Span("pub.wire", trace.LayerWire)
	att.call = p.sess.Start(att, 0, pub.node, nil)
	return s.Seq
}

// Send fires one attempt of a reliable publish (Publisher.send).
func (a *pubAttempt) Send(uint64, int) { a.pub.send(a) }

// Label names the publish's call (see publishLabel).
func (a *pubAttempt) Label(uint64) string { return publishLabel(a.s) }

// Trace hands the engine the publish trace.
func (a *pubAttempt) Trace(_ uint64, i int) (trace.Ref, bool) { return a.ref, i == 0 }

// publishLabel renders a reliable publish's call label
// ("pubsub.telemetry.p2#17") into one string, without fmt.
func publishLabel(s Sample) string {
	var buf [64]byte
	b := append(append(append(buf[:0], "pubsub."...), s.Topic...), ".p"...)
	b = strconv.AppendUint(b, s.Pub, 10)
	return string(strconv.AppendUint(append(b, '#'), s.Seq, 10))
}

// send transmits (or retransmits) one reliable publish to the owning
// group's current primary.
func (pub *Publisher) send(att *pubAttempt) {
	p := pub.p
	target := pub.t.gs.g.Replication().Primary()
	p.send(pub.node, target, p.reqPort, pubMsg{Topic: pub.t.name, Value: att.s.Value, Att: att}, 48)
}

// ---------------------------------------------------------------------
// Subscriber

// Subscriber is one topic endpoint consuming samples.
type Subscriber struct {
	p    *Plane
	t    *Topic
	id   int
	node int
	// fanout names the publish-trace span of a fan-out send to this
	// subscriber ("fanout.n3"), rendered once.
	fanout string

	joinAt vtime.Time
	active bool
	// catchupCall re-sends a late joiner's catch-up until caughtUp.
	caughtUp    bool
	catchupCall session.Handle

	seen       map[sampleKey]bool
	deliveries []Delivery
	suppressed int
	// backlog counts fan-out sends skipped because this subscriber's
	// node was down; the next view install drops (and records) it.
	backlog int
}

// Node returns the subscriber's node.
func (s *Subscriber) Node() int { return s.node }

// Deliveries returns the recorded deliveries, arrival order.
func (s *Subscriber) Deliveries() []Delivery { return append([]Delivery(nil), s.deliveries...) }

// Delivered counts the recorded deliveries without copying them.
func (s *Subscriber) Delivered() int { return len(s.deliveries) }

// Suppressed returns the count of redundant copies dedup collapsed.
func (s *Subscriber) Suppressed() int { return s.suppressed }

// JoinTime returns the subscriber's join instant (zero = from start).
func (s *Subscriber) JoinTime() vtime.Time { return s.joinAt }

// SetJoinAt turns the subscriber into a late joiner: inactive until t,
// then registered live, and — on durable topics — caught up from the
// owning primary's history ring.
func (s *Subscriber) SetJoinAt(t vtime.Time) error {
	if s.p.started {
		return fmt.Errorf("pubsub: subscriber %d joinAt set after the plane started", s.id)
	}
	if t <= 0 {
		return fmt.Errorf("pubsub: subscriber %d needs a positive joinAt (got %s)", s.id, t)
	}
	s.joinAt = t
	return nil
}

// join activates a late joiner and starts durable catch-up.
func (s *Subscriber) join() {
	p := s.p
	s.active = true
	p.eng.Recordf(monitor.KindCatchUp, s.node, "pubsub."+s.t.name,
		"subscriber %d joined late", s.id)
	if s.t.qos.Durable {
		s.catchupCall = p.sess.Start(catchup{s}, 0, s.node, nil)
		if s.caughtUp { // a co-located primary answered the first attempt in place
			p.sess.Finish(s.catchupCall)
		}
	}
}

// catchup is a late joiner as the owner of its catch-up call, which
// re-sends the request until the catch-up ack lands.
type catchup struct{ s *Subscriber }

// Send requests the durable history from the owning primary.
func (c catchup) Send(uint64, int) {
	s, p := c.s, c.s.p
	target := s.t.gs.g.Replication().Primary()
	p.send(s.node, target, p.reqPort, catchupMsg{Topic: s.t.name, Sub: s.id}, 24)
}

// Label names the catch-up call ("pubsub.telemetry.catchup#3").
func (c catchup) Label(uint64) string { return fmt.Sprintf("pubsub.%s.catchup#%d", c.s.t.name, c.s.id) }

// deliver records one sample arrival (dedup first, then deadline QoS,
// then the fan-out completion bookkeeping).
func (s *Subscriber) deliver(sample Sample, replay bool, att *pubAttempt) {
	if !s.active {
		return
	}
	k := sample.key()
	if s.seen[k] {
		s.suppressed++
		s.t.suppressed++
		if att != nil {
			att.maybeFinish()
		}
		return
	}
	s.seen[k] = true
	p := s.p
	lat := p.eng.Now().Sub(sample.PublishedAt)
	d := Delivery{Sample: sample, Latency: lat, Replay: replay}
	s.deliveries = append(s.deliveries, d)
	s.t.delivered++
	s.t.mLat.Observe(int64(lat))
	if replay {
		s.t.replayed++
	} else if dl := s.t.qos.Deadline; dl > 0 && lat > dl {
		s.t.deadlineMiss++
		p.eng.Recordf(monitor.KindDeadlineMiss, s.node, "pubsub."+s.t.name,
			"sample p%d#%d latency %s > bound %s", sample.Pub, sample.Seq, lat, dl)
	}
	if att != nil {
		if att.outstanding > 0 {
			att.outstanding--
		}
		att.maybeFinish()
	}
}

// ---------------------------------------------------------------------
// Server side (owning-group replicas)

// handleReq serves one request arriving at replica node: a publish
// (admit into the replicated machine, or re-ack a dedup hit) or a
// durable catch-up request.
func (p *Plane) handleReq(gs *groupState, node int, m *netsim.Message) {
	if p.net.NodeDown(node) {
		return
	}
	switch env := m.Payload.(type) {
	case pubMsg:
		p.handlePub(gs, node, env)
	case catchupMsg:
		p.handleCatchup(gs, node, env)
	}
}

// handlePub admits one reliable publish at replica node.
func (p *Plane) handlePub(gs *groupState, node int, env pubMsg) {
	att := env.Att
	t := p.topics[env.Topic]
	if t == nil || att == nil {
		return
	}
	// A refused publish gets no reply: the publisher's retry loop finds
	// the majority primary. (Never Down: handleReq dropped that.)
	switch verdict, prim := gs.g.Gate(node); verdict {
	case shard.NoQuorum:
		att.ref.Instant("blocked at n%d: no quorum", node)
		return
	case shard.NotPrimary:
		att.ref.Instant("not primary at n%d (primary n%d)", node, prim)
		return
	}
	rep := gs.g.Replication()
	tag := sampleTag(att.s)
	if sm := rep.Machine(node); sm != nil {
		if _, dup := sm.Lookup(tag); dup {
			// A retry of a sample the machine already applied: answer
			// from the dedup table, never re-apply. The entry must be
			// this plane's: a tag present without an apply behind it is
			// another writer's, and the sample was never fanned out.
			if !att.applied {
				t.ackedUnapplied++
			}
			p.sendAck(node, att)
			return
		}
	}
	if gs.inflight[tag] {
		return // already in the replication pipeline; its apply acks
	}
	gs.inflight[tag] = true
	att.server = node
	att.wire.End()
	att.repl = att.ref.Span("replicate."+gs.g.Name(), trace.LayerReplicate)
	rep.SubmitOwned(node, []replication.BatchItem{{Cmd: env.Value, Tag: tag, Owner: att}})
}

// sampleTag is the sample's replicated dedup tag.
func sampleTag(s Sample) replication.ClientSeq {
	return replication.Tag(replication.TagPubSub, s.Pub, s.Seq)
}

// handleCatchup replays the durable history ring to a late joiner.
func (p *Plane) handleCatchup(gs *groupState, node int, env catchupMsg) {
	if env.Sub < 0 || env.Sub >= len(p.subs) {
		return
	}
	sub := p.subs[env.Sub]
	if verdict, _ := gs.g.Gate(node); sub.caughtUp || verdict != shard.Serve {
		return
	}
	h := gs.hist[node][env.Topic]
	for _, s := range h {
		p.sendDeliver(node, sub, s, true, trace.SpanRef{}, nil)
	}
	p.eng.Recordf(monitor.KindCatchUp, node, "pubsub."+env.Topic,
		"replayed %d samples to late joiner %d@n%d", len(h), env.Sub, sub.node)
	p.send(node, sub.node, p.subPort, catchupAck{Sub: env.Sub}, 16)
}

// onApply is the plane's side of a sample's apply: every replica that
// freshly applies it appends it to its durable history and fans it out
// to the registered subscribers. The serving replica additionally acks
// the publisher and opens the fan-out trace spans.
func (p *Plane) onApply(node int, att *pubAttempt) {
	t := att.pub.t
	gs := t.gs
	// The tag landed in the replicated dedup table: retries are now
	// answered from it, so the in-pipeline guard can retire.
	delete(gs.inflight, sampleTag(att.s))
	if !att.applied {
		att.applied = true
		t.applied++
	}
	if t.qos.Durable {
		byTopic := gs.hist[node]
		if byTopic == nil {
			byTopic = make(map[string][]Sample)
			gs.hist[node] = byTopic
		}
		h := append(byTopic[t.name], att.s)
		if over := len(h) - t.qos.HistoryDepth; over > 0 {
			h = append([]Sample(nil), h[over:]...)
		}
		byTopic[t.name] = h
	}
	serving := node == att.server
	if serving && att.outstanding < 0 {
		// Count the subscribers this fan-out is expected to reach so
		// the publish trace can close when the last delivery lands.
		n := 0
		for _, sub := range t.subs {
			if sub.active && !p.net.NodeDown(sub.node) {
				n++
			}
		}
		att.outstanding = n
		att.repl.End()
	}
	for _, sub := range t.subs {
		if !sub.active {
			continue
		}
		if p.net.NodeDown(sub.node) {
			if serving {
				sub.backlog++
			}
			continue
		}
		var span trace.SpanRef
		if serving {
			span = att.ref.Span(sub.fanout, trace.LayerWire)
		}
		p.sendDeliver(node, sub, att.s, false, span, att)
	}
	if serving {
		p.sendAck(node, att)
	}
}

// sendAck answers the publisher from replica node.
func (p *Plane) sendAck(node int, att *pubAttempt) {
	p.send(node, att.pub.node, p.ackPort, ackMsg{Att: att}, 24)
}

// sendDeliver ships one sample to one subscriber.
func (p *Plane) sendDeliver(from int, sub *Subscriber, s Sample, replay bool, span trace.SpanRef, att *pubAttempt) {
	p.send(from, sub.node, p.subPort, deliverMsg{S: s, Sub: sub.id, Replay: replay, Span: span, Att: att}, 48)
}

// send is the plane's one hop: over the wire, or — sender and receiver
// on one node — straight into the handler bound there, synchronously
// and with no wire cost (there are no self-links).
func (p *Plane) send(from, to int, port string, payload any, size int) {
	if from == to {
		p.net.Local(from, to, port, payload, size)
		return
	}
	_, _ = p.net.Send(from, to, port, payload, size)
}

// handleAck completes one reliable publish at the publisher's node.
func (p *Plane) handleAck(node int, m *netsim.Message) {
	env, ok := m.Payload.(ackMsg)
	if !ok || env.Att == nil || p.net.NodeDown(node) {
		return
	}
	env.Att.complete()
}

// handleDeliver dispatches one fan-out (or replay) arrival at a
// subscriber node.
func (p *Plane) handleDeliver(node int, m *netsim.Message) {
	if p.net.NodeDown(node) {
		return
	}
	switch env := m.Payload.(type) {
	case deliverMsg:
		if env.Sub < 0 || env.Sub >= len(p.subs) {
			return
		}
		env.Span.End()
		p.subs[env.Sub].deliver(env.S, env.Replay, env.Att)
	case catchupAck:
		if env.Sub >= 0 && env.Sub < len(p.subs) {
			s := p.subs[env.Sub]
			s.caughtUp = true
			p.sess.Finish(s.catchupCall)
		}
	}
}

// onBE handles one best-effort broadcast delivery at node: the origin
// completes its publish; every hosted subscriber of the topic takes a
// delivery.
func (p *Plane) onBE(node int, d rbcast.Delivery) {
	env, ok := d.Payload.(beMsg)
	if !ok {
		return
	}
	if att := env.Att; node == d.Origin && !att.acked {
		att.wire.End()
		att.outstanding = 0
		att.complete()
	}
	for _, sub := range p.subsAt[node] {
		if sub.t.name == env.S.Topic {
			sub.deliver(env.S, false, nil)
		}
	}
}

// ---------------------------------------------------------------------
// Group state: views, merges, state transfer

// onView drops (and records) the backlog of subscribers that are down
// at a view install: the eviction discards what fan-out could not
// deliver.
func (gs *groupState) onView(v membership.View) {
	p := gs.p
	// A round in flight across the view boundary either applied (the
	// dedup table answers its retries) or was flushed with the old view
	// (the retry must be allowed to resubmit) — the in-pipeline guard
	// is stale either way.
	gs.inflight = make(map[replication.ClientSeq]bool)
	for _, t := range gs.topics {
		for _, sub := range t.subs {
			if sub.backlog > 0 && p.net.NodeDown(sub.node) {
				t.dropped += sub.backlog
				p.eng.Recordf(monitor.KindSampleDrop, sub.node, "pubsub."+t.name,
					"dropped %d backlogged samples at %s (subscriber %d down)", sub.backlog, v.String(), sub.id)
				sub.backlog = 0
			}
		}
	}
}

// onMerge replays every durable topic's history to its subscribers
// after a partition heals: a subscriber cut off with the minority
// missed the majority's applies, and dedup suppresses the copies the
// others already saw.
func (gs *groupState) onMerge(_ membership.Merge) {
	p := gs.p
	prim := gs.g.Replication().Primary()
	if p.net.NodeDown(prim) {
		return
	}
	for _, t := range gs.topics {
		if !t.qos.Durable {
			continue
		}
		h := gs.hist[prim][t.name]
		if len(h) == 0 {
			continue
		}
		replayed := 0
		for _, sub := range t.subs {
			if !sub.active || p.net.NodeDown(sub.node) {
				continue
			}
			for _, s := range h {
				p.sendDeliver(prim, sub, s, true, trace.SpanRef{}, nil)
			}
			replayed++
		}
		if replayed > 0 {
			p.eng.Recordf(monitor.KindCatchUp, prim, "pubsub."+t.name,
				"merge replay: %d samples to %d subscribers", len(h), replayed)
		}
	}
}

// snapshot freezes a donor replica's durable histories for a join
// state transfer.
func (gs *groupState) snapshot(donor int) any {
	src := gs.hist[donor]
	out := make(map[string][]Sample, len(src))
	for topic, h := range src {
		out[topic] = append([]Sample(nil), h...)
	}
	return out
}

// restore installs a shipped history snapshot at a rejoined replica.
func (gs *groupState) restore(node int, data any) {
	snap, ok := data.(map[string][]Sample)
	if !ok {
		return
	}
	in := make(map[string][]Sample, len(snap))
	for topic, h := range snap {
		in[topic] = append([]Sample(nil), h...)
	}
	gs.hist[node] = in
}

// ---------------------------------------------------------------------
// Stats

// Stats distills one topic's account.
func (t *Topic) Stats() TopicStats {
	st := TopicStats{
		Name: t.name, Shard: t.shard, QoS: t.qos,
		Publishers: len(t.pubs), Subscribers: len(t.subs),
		Published: t.published, Acked: t.acked,
		Delivered: t.delivered, Suppressed: t.suppressed, Replayed: t.replayed,
		Dropped: t.dropped, DeadlineMiss: t.deadlineMiss,
	}
	if t.gs != nil && t.qos.Durable {
		st.HistoryLen = len(t.gs.hist[t.gs.g.Replication().Primary()][t.name])
	}
	return st
}

// Stats distills every topic's account, declaration order.
func (p *Plane) Stats() []TopicStats {
	out := make([]TopicStats, len(p.order))
	for i, t := range p.order {
		out[i] = t.Stats()
	}
	return out
}

// Subscribers returns a topic's subscribers, registration order.
func (p *Plane) Subscribers(topic string) []*Subscriber {
	t := p.topics[topic]
	if t == nil {
		return nil
	}
	return append([]*Subscriber(nil), t.subs...)
}
