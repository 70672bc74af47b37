// Package cluster is the unified runtime layer of the HADES
// reproduction: one builder that composes N simulated kernel nodes, a
// network topology with bounded-delay links, the generic dispatcher,
// shared monitoring and seeded fault injection behind a single API, so
// applications describe the cluster and get a running system (§3–§4 of
// the paper: the middleware, not the application, wires dispatcher,
// time-bounded services and failure detection over the COTS substrate).
//
// Typical use:
//
//	c := cluster.New(cluster.Config{Seed: 1, Costs: dispatcher.DefaultCostBook()})
//	c.AddNodes(3)
//	c.ConnectAll(100*vtime.Microsecond, 300*vtime.Microsecond)
//	app := c.NewApp("ctrl", sched.NewEDF(20*vtime.Microsecond), sched.NewSRP())
//	app.MustSpawn(task)               // registered and driven per its arrival law
//	c.DropEvery(40, "heug.prec")      // seeded fault injection
//	res := c.Run(vtime.Second)        // seals apps, starts generators, runs
//
// The run is a pure function of the builder calls and the seed: two
// identically-described clusters produce identical event traces.
package cluster

import (
	"fmt"

	"hades/internal/dispatcher"
	"hades/internal/eventq"
	"hades/internal/fault"
	"hades/internal/heug"
	"hades/internal/load"
	"hades/internal/membership"
	"hades/internal/metrics"
	"hades/internal/monitor"
	"hades/internal/netsim"
	"hades/internal/replication"
	"hades/internal/simkern"
	"hades/internal/trace"
	"hades/internal/vtime"
)

// TraceParams tunes the causal tracing plane. A nil Config.Trace
// enables tracing at DefaultSampleRate; a non-nil value is used
// verbatim, so SampleRate 0 means "histograms for all, full span trees
// only for violating traces".
// DefaultSampleRate is the span-tree retention rate a nil Config.Trace
// selects: enough retained traces to debug from, cheap enough that
// tracing stays within the benchmarked overhead budget. Scenarios that
// want every span tree (the builtins do) pin the rate explicitly.
const DefaultSampleRate = 0.1

type TraceParams struct {
	// SampleRate is the fraction of finished traces retained with full
	// span trees, chosen by a deterministic hash of the trace id (never
	// the engine's random stream). Violating traces — deadline misses,
	// aborts, omission-hit ops — are always retained regardless.
	SampleRate float64
	// Disabled turns the tracing plane off entirely: no spans, no
	// percentile aggregation, no retained traces.
	Disabled bool
}

// MetricsParams tunes the virtual-time metrics plane. A nil
// Config.Metrics enables the plane with no SLO rules. The plane's
// sizes are the metrics package's constants (5ms scrape interval,
// 256-point series, 16-key hotness sketch).
type MetricsParams struct {
	// Rules are the declarative SLO threshold rules evaluated each
	// scrape interval; breaches and clears land in the monitor stream.
	Rules []metrics.Rule
	// Disabled turns the metrics plane off entirely: nil instrument
	// handles everywhere, no scrape events, no export.
	Disabled bool
}

// Config describes the cluster to assemble.
type Config struct {
	// Seed drives all randomness (link delays, probabilistic faults):
	// same description plus same seed means the same run.
	Seed int64
	// Costs is the §4 cost book; the zero value means free middleware
	// (idealised comparisons). Use dispatcher.DefaultCostBook for
	// realistic costs.
	Costs dispatcher.CostBook
	// LogLimit bounds the event log: 0 selects a generous default,
	// negative disables the bound entirely.
	LogLimit int
	// CancelOnMiss aborts instances at their deadline (orphan
	// handling); the default false records misses only.
	CancelOnMiss bool
	// Trace tunes the causal tracing plane; nil enables tracing at
	// DefaultSampleRate. Histograms observe every op either way —
	// the rate only bounds span-tree retention.
	Trace *TraceParams
	// Metrics tunes the virtual-time metrics plane; nil enables it
	// with the package defaults.
	Metrics *MetricsParams
}

// linkDecl is one declared point-to-point link.
type linkDecl struct {
	a, b       int
	dMin, dMax vtime.Duration
}

// Cluster is the builder and runtime handle. Declare the topology
// (AddNode, Connect), the applications (NewApp, Spawn), and the faults
// (Crash, DropEvery, ...), then Run. Not safe for concurrent use; a
// run is single-threaded by design.
type Cluster struct {
	cfg     Config
	log     *monitor.Log
	eng     *simkern.Engine
	tracer  *trace.Tracer
	metrics *metrics.Registry
	nodes   []int
	links   []linkDecl
	mesh    *linkDecl // ConnectAll request (a, b unused)

	net  *netsim.Network
	disp *dispatcher.Dispatcher
	apps []*App

	hooks     fault.Hooks
	spawns    []*heug.Task // driven from Run per their arrival law
	groups    []*Group
	shardSets []*ShardSet
	loads     []*load.Generator
	started   map[string]bool
	built     bool

	// Operational modes (see modes.go): mode name → task set, the active
	// mode, and the epoch its generators run under.
	modes     map[string][]string
	mode      string
	modeEpoch int
}

// DefaultLinkDMin and DefaultLinkDMax bound point-to-point delays when
// the topology is left implicit (a multi-node cluster with no Connect
// call gets a full mesh with these bounds, mirroring the paper's ATM
// testbed magnitudes).
const (
	DefaultLinkDMin = 100 * vtime.Microsecond
	DefaultLinkDMax = 300 * vtime.Microsecond
)

// New returns an empty cluster. Add nodes and links before registering
// applications; the platform is finalized by the first NewApp, Run or
// Network/Dispatcher access.
func New(cfg Config) *Cluster {
	limit := cfg.LogLimit
	switch {
	case limit == 0:
		limit = 500000
	case limit < 0:
		limit = 0 // monitor.NewLog(0) = unbounded
	}
	log := monitor.NewLog(limit)
	// The window keeps, unasked, only the kind the benchmark's
	// rt-pipeline latency sample reads (TaskDone's resp= details);
	// every other kind is counted, not kept, until a reader calls Keep.
	log.Keep(monitor.KindTaskComplete)
	c := &Cluster{
		cfg:     cfg,
		log:     log,
		eng:     simkern.NewEngine(log, cfg.Seed),
		started: make(map[string]bool),
		modes:   make(map[string][]string),
	}
	rate, disabled := DefaultSampleRate, false
	if cfg.Trace != nil {
		rate, disabled = cfg.Trace.SampleRate, cfg.Trace.Disabled
	}
	if !disabled {
		c.tracer = trace.New(cfg.Seed, rate, c.eng.Now)
		c.eng.SetTracer(c.tracer)
	}
	mp := MetricsParams{}
	if cfg.Metrics != nil {
		mp = *cfg.Metrics
	}
	if !mp.Disabled {
		c.metrics = metrics.New(metrics.Options{
			Rules:    mp.Rules,
			Schedule: c.Chain(),
			Log:      log,
		})
		c.eng.SetMetrics(c.metrics)
		// Kernel-plane signals: live event-queue depth and events
		// retired per interval, sampled from statistics the engine
		// already keeps. The depth counts scheduled events only: a
		// chain (Chain) holds its next event, not the rest of it, and
		// the scrape chain (one for the cluster's life) pushes its next
		// tick after the scrape reads the depth, so scrapes do not
		// count at all. Its one place in the event order makes each
		// point the same however the horizon is split into runs.
		c.metrics.GaugeFunc("eventq.depth", func() int64 { return int64(c.eng.QueueLen()) })
		c.metrics.CounterFunc("eventq.events", func() int64 { return int64(c.eng.EventsFired()) })
	}
	return c
}

// AddNode registers one mono-processor node and returns its id. An
// empty name defaults to "nodeN". Nodes must be added before the first
// NewApp or Run.
func (c *Cluster) AddNode(name string) int {
	if c.built {
		panic("cluster: AddNode after the platform was finalized")
	}
	id := len(c.nodes)
	if name == "" {
		name = fmt.Sprintf("node%d", id)
	}
	c.eng.AddProcessor(name, c.cfg.Costs.SwitchCost)
	c.nodes = append(c.nodes, id)
	return id
}

// AddNodes registers n nodes with default names and returns their ids.
func (c *Cluster) AddNodes(n int) []int {
	ids := make([]int, 0, n)
	for i := 0; i < n; i++ {
		ids = append(ids, c.AddNode(""))
	}
	return ids
}

// Connect declares a bidirectional link between nodes a and b with
// transmission delay bounds [dMin, dMax].
func (c *Cluster) Connect(a, b int, dMin, dMax vtime.Duration) {
	if c.built {
		c.net.Connect(a, b, dMin, dMax)
		return
	}
	c.links = append(c.links, linkDecl{a: a, b: b, dMin: dMin, dMax: dMax})
}

// ConnectAll declares a full mesh over every node with the same bounds.
func (c *Cluster) ConnectAll(dMin, dMax vtime.Duration) {
	if c.built {
		c.net.ConnectAll(c.nodes, dMin, dMax)
		return
	}
	c.mesh = &linkDecl{dMin: dMin, dMax: dMax}
}

// build finalizes the platform: network (when any topology was
// declared, or implicitly for multi-node clusters) then dispatcher.
// The construction order is part of the determinism contract.
func (c *Cluster) build() {
	if c.built {
		return
	}
	if len(c.nodes) == 0 {
		c.AddNode("")
	}
	c.built = true
	if c.mesh == nil && len(c.links) == 0 && len(c.nodes) > 1 {
		c.mesh = &linkDecl{dMin: DefaultLinkDMin, dMax: DefaultLinkDMax}
	}
	if c.mesh != nil || len(c.links) > 0 {
		c.net = netsim.New(c.eng, netsim.DefaultConfig())
		if c.mesh != nil {
			c.net.ConnectAll(c.nodes, c.mesh.dMin, c.mesh.dMax)
		}
		for _, l := range c.links {
			c.net.Connect(l.a, l.b, l.dMin, l.dMax)
		}
		// Network-plane signals, fed from the stats netsim already
		// accumulates.
		c.metrics.GaugeFunc("net.inflight", func() int64 { return int64(c.net.Inflight()) })
		c.metrics.CounterFunc("net.sent", func() int64 { return int64(c.net.Stats().Sent) })
		c.metrics.CounterFunc("net.drops", func() int64 { return int64(c.net.Stats().Dropped) })
	}
	c.disp = dispatcher.New(c.eng, c.net, c.cfg.Costs)
	c.disp.CancelOnMiss = c.cfg.CancelOnMiss
}

// Engine returns the discrete-event engine.
func (c *Cluster) Engine() *simkern.Engine { return c.eng }

// Network returns the simulated interconnect (nil when the cluster has
// a single node and no declared links). It finalizes the platform.
func (c *Cluster) Network() *netsim.Network {
	c.build()
	return c.net
}

// Log returns the shared monitoring event log. Its window keeps only
// TaskComplete records unless a reader calls Keep before the first Run.
func (c *Cluster) Log() *monitor.Log { return c.log }

// Tracer returns the causal tracing plane (nil when disabled — a valid
// disabled tracer; every trace call no-ops).
func (c *Cluster) Tracer() *trace.Tracer { return c.tracer }

// Metrics returns the virtual-time metrics plane (nil when disabled —
// a valid disabled registry; every instrument accessor returns a
// no-op handle).
func (c *Cluster) Metrics() *metrics.Registry { return c.metrics }

// Now returns the current virtual time.
func (c *Cluster) Now() vtime.Time { return c.eng.Now() }

// At schedules an application-level callback at absolute instant t
// (workload feeding, measurement probes).
func (c *Cluster) At(t vtime.Time, fn func()) {
	c.eng.Arm(t, eventq.ClassApp, eventq.Func(fn), 0)
}

// Chain returns an At door for one chain of application callbacks,
// each scheduled by its predecessor at a strictly later instant (an
// open-loop arrival schedule, a fixed-interval driver). The chain
// takes its place in the event order on its first call and keeps it
// for every event, so the run is the one an eager layout of the whole
// chain at that call would give, with one event queued at a time.
func (c *Cluster) Chain() func(t vtime.Time, fn func()) {
	var slot eventq.Slot
	last := vtime.Time(-1)
	return func(t vtime.Time, fn func()) {
		if t <= last {
			panic(fmt.Sprintf("cluster: chain instant %s not after %s", t, last))
		}
		if last < 0 {
			slot = c.eng.Slot()
		}
		last = t
		c.eng.AtSlot(slot, t, eventq.ClassApp, eventq.Func(fn), 0)
	}
}

// App is one application on the cluster: a scheduler, a resource
// policy, and its tasks.
type App struct {
	c      *Cluster
	app    *dispatcher.App
	sealed bool
}

// NewApp registers an application with its scheduling policy and
// resource protocol (nil policy = plain locking). It finalizes the
// platform: declare all nodes and links first.
func (c *Cluster) NewApp(name string, sch dispatcher.Scheduler, pol dispatcher.ResourcePolicy) *App {
	c.build()
	a := &App{c: c, app: c.disp.RegisterApp(name, sch, pol)}
	c.apps = append(c.apps, a)
	return a
}

// addTask registers a HEUG task without driving it (activate it with
// ActivateAt/ActivateOnCond, or use Spawn for law-driven tasks).
func (a *App) addTask(t *heug.Task) error {
	_, err := a.app.AddTask(t)
	return err
}

// MustAddTask registers a task, panicking on error (static setup).
func (a *App) MustAddTask(t *heug.Task) {
	if err := a.addTask(t); err != nil {
		panic(err)
	}
}

// AddSpuri translates a §5.1 task via Figure 3 and registers it.
func (a *App) AddSpuri(st heug.SpuriTask) error {
	t, err := st.ToHEUG()
	if err != nil {
		return err
	}
	return a.addTask(t)
}

// Spawn registers a task and schedules it to be driven from Run
// according to its declared arrival law: periodic tasks get a timer
// generator, sporadic tasks the worst-case (pseudo-period) generator,
// aperiodic tasks are registered only (activate them with ActivateAt
// or ActivateOnCond).
func (a *App) Spawn(t *heug.Task) error {
	if err := a.addTask(t); err != nil {
		return err
	}
	if t.Arrival.Kind != heug.Aperiodic {
		a.c.spawns = append(a.c.spawns, t)
	}
	return nil
}

// MustSpawn is Spawn, panicking on error (static setup).
func (a *App) MustSpawn(t *heug.Task) {
	if err := a.Spawn(t); err != nil {
		panic(err)
	}
}

// SpawnSpuri translates a §5.1 task and spawns it.
func (a *App) SpawnSpuri(st heug.SpuriTask) error {
	t, err := st.ToHEUG()
	if err != nil {
		return err
	}
	return a.Spawn(t)
}

// Seal finishes the app: static priority assignment, protocol
// ceilings, admission wiring. Run seals every app automatically; call
// it early only when setup code needs a sealed app before Run.
func (a *App) Seal() {
	if a.sealed {
		return
	}
	a.sealed = true
	a.app.Seal()
}

// StartPeriodic installs a timer-driven activation source following
// the task's declared periodic arrival law (offset, then every
// period). Spawn does this automatically for periodic tasks.
func (c *Cluster) StartPeriodic(task string) error {
	return c.start(task, heug.Periodic, nil)
}

// StartSporadic activates a sporadic task every pseudo-period plus a
// caller-supplied extra gap per instance (nil = worst-case rate). The
// pattern is deterministic given the engine seed if extraGap uses it.
func (c *Cluster) StartSporadic(task string, extraGap func(k uint64) vtime.Duration) error {
	return c.start(task, heug.Sporadic, extraGap)
}

// start claims a task of the given arrival kind for one standing
// activation source and arms it.
func (c *Cluster) start(task string, kind heug.ArrivalKind, extraGap func(k uint64) vtime.Duration) error {
	c.build()
	tr, ok := c.disp.Task(task)
	if !ok {
		return fmt.Errorf("cluster: unknown task %q", task)
	}
	law := tr.Task.Arrival
	if law.Kind != kind {
		return fmt.Errorf("cluster: task %q is not %s", task, kind)
	}
	if c.started[task] {
		return fmt.Errorf("cluster: task %q already driven", task)
	}
	c.started[task] = true
	c.drive(task, law.Offset, law.Period, extraGap, nil)
	return nil
}

// drive is the one activation loop: a first activation after delay,
// then one every period plus extraGap(k) after the k-th (nil = none),
// for as long as live holds (nil = for the whole run).
func (c *Cluster) drive(task string, delay, period vtime.Duration, extraGap func(k uint64) vtime.Duration, live func() bool) {
	d := &driver{c: c, task: task, period: period, extraGap: extraGap, live: live}
	c.eng.Arm(c.eng.Now().Add(delay), eventq.ClassDispatch, d, 0)
}

// driver is one activation loop of drive, the handler of its own
// activations; k counts them.
type driver struct {
	c        *Cluster
	task     string
	period   vtime.Duration
	extraGap func(k uint64) vtime.Duration
	live     func() bool
	k        uint64
}

func (d *driver) Fire(uint64) {
	if d.live != nil && !d.live() {
		return
	}
	_, _ = d.c.disp.Activate(d.task) // arrival-law monitoring inside
	d.k++
	gap := d.period
	if d.extraGap != nil {
		gap += d.extraGap(d.k)
	}
	d.c.eng.Arm(d.c.eng.Now().Add(gap), eventq.ClassDispatch, d, 0)
}

// StartSporadicWorstCase activates a sporadic task at its maximum
// legal rate — the worst-case arrival pattern feasibility tests
// assume. Spawn does this automatically for sporadic tasks.
func (c *Cluster) StartSporadicWorstCase(task string) error {
	return c.StartSporadic(task, nil)
}

// ActivateAt requests a single activation at an absolute instant
// (aperiodic arrivals, interrupt-triggered tasks).
func (c *Cluster) ActivateAt(task string, at vtime.Time) {
	c.build()
	c.eng.Arm(at, eventq.ClassDispatch, eventq.Func(func() { _, _ = c.disp.Activate(task) }), 0)
}

// ActivateOnCond activates the task whenever the named condition
// variable is set — the event-triggered activation law of §3.1.2.
func (c *Cluster) ActivateOnCond(cond, task string) {
	c.build()
	c.disp.WatchCond(cond, func() { _, _ = c.disp.Activate(task) })
}

// Group is a managed view-synchronous membership group on the
// cluster, optionally carrying replica groups. Created with
// Cluster.Group; its services are started by Run.
type Group struct {
	c   *Cluster
	svc *membership.Service
	rep []*replication.Group
}

// Group declares a view-synchronous membership group over the given
// nodes: a heartbeat detector, agreed view changes (consensus +
// time-bounded broadcast) and the rejoin/state-transfer protocol, all
// started by Run. It finalizes the platform and needs a network.
func (c *Cluster) Group(name string, nodes ...int) *Group {
	c.build()
	if c.net == nil {
		panic("cluster: Group needs a network (declare links or multiple nodes)")
	}
	// The name scopes the group's membership ports: two services under
	// one name would deliver into each other and exclude live members.
	for _, prev := range c.groups {
		if prev.svc.Name() == name {
			panic(fmt.Sprintf("cluster: group %q already exists (a shard set names its groups <set name><index>)", name))
		}
	}
	svc, err := membership.New(c.eng, c.net, membership.Config{Name: name, Nodes: nodes})
	if err != nil {
		panic(err)
	}
	g := &Group{c: c, svc: svc}
	c.groups = append(c.groups, g)
	return g
}

// Membership returns the group's membership service (view history,
// bounds, detector access).
func (g *Group) Membership() *membership.Service { return g.svc }

// Groups returns the cluster's membership groups, in creation order.
func (c *Cluster) Groups() []*Group { return c.groups }

// Replicate attaches a replica group whose failover is driven by this
// group's installed views. Zero-value cfg fields default: Name to the
// group name, Replicas to the full member set, WExec and StorageLatency
// to the cluster's replica costs. The returned group is ready: submit
// requests with Submit.
func (g *Group) Replicate(cfg replication.Config, onReply func(reqID uint64, result int64, unanimous bool)) *replication.Group {
	if cfg.Name == "" {
		cfg.Name = g.svc.Name()
	}
	if len(cfg.Replicas) == 0 {
		cfg.Replicas = g.svc.Nodes()
	}
	if cfg.WExec == 0 {
		cfg.WExec = replicaWExec
	}
	if cfg.StorageLatency == 0 {
		cfg.StorageLatency = replicaStorageLatency
	}
	r, err := replication.NewGroup(g.c.eng, g.c.net, g.svc, cfg, onReply)
	if err != nil {
		panic(err)
	}
	g.rep = append(g.rep, r)
	return r
}

// Crash schedules a crash of node at instant t; if recoverAt is
// non-zero the node comes back then. Crashed nodes neither send nor
// receive.
func (c *Cluster) Crash(node int, at, recoverAt vtime.Time) {
	c.build()
	if c.net == nil {
		panic("cluster: Crash needs a network (declare links or multiple nodes)")
	}
	fault.CrashAt(c.eng, c.net, node, at, recoverAt)
}

// PartitionAt schedules a network partition into the given sides at
// instant at: cross-side messages (including copies in flight) drop
// until HealAt. Nodes listed in no side keep full connectivity (hosts
// outside the segmented segment, e.g. clients). Membership groups
// enforce the primary-partition rule across the split: only the side
// holding a majority quorum of the previous view installs views.
func (c *Cluster) PartitionAt(at vtime.Time, sides ...[]int) {
	c.build()
	if c.net == nil {
		panic("cluster: PartitionAt needs a network (declare links or multiple nodes)")
	}
	fault.PartitionAt(c.eng, c.net, at, 0, sides...)
}

// HealAt schedules the heal of the partition at instant at.
func (c *Cluster) HealAt(at vtime.Time) {
	c.build()
	if c.net == nil {
		panic("cluster: HealAt needs a network (declare links or multiple nodes)")
	}
	fault.HealAt(c.eng, c.net, at)
}

// injectFault chains a custom fault hook after the ones already
// installed; the first non-deliver verdict wins. Hooks must be
// deterministic given the engine's seeded source.
func (c *Cluster) injectFault(h netsim.FaultHook) {
	c.build()
	if c.net == nil {
		panic("cluster: fault injection needs a network (declare links or multiple nodes)")
	}
	c.hooks = append(c.hooks, h)
	c.net.SetFault(c.hooks)
}

// DropEvery drops every k-th message on the given port (empty port
// matches all traffic) — a deterministic send-omission pattern.
func (c *Cluster) DropEvery(k int, port string) {
	var filter func(*netsim.Message) bool
	if port != "" {
		filter = func(m *netsim.Message) bool { return m.Port == port }
	}
	c.injectFault(&fault.OmissionEvery{K: k, Filter: filter})
}

// DropFrom drops all messages sent by the given nodes on the given
// port (empty port matches all their traffic) — fully
// send-omission-faulty processes.
func (c *Cluster) DropFrom(nodes []int, port string) {
	set := make(map[int]bool, len(nodes))
	for _, n := range nodes {
		set[n] = true
	}
	c.injectFault(&fault.OmissionFrom{Nodes: set, Port: port})
}

// Run seals every application, starts the generators of spawned
// tasks, executes the cluster for the given virtual duration and
// reports. It may be called repeatedly to advance further.
func (c *Cluster) Run(d vtime.Duration) Result {
	c.build()
	for _, a := range c.apps {
		a.Seal()
	}
	for _, g := range c.groups {
		g.svc.Start() // idempotent across repeated Runs
	}
	for _, set := range c.shardSets {
		if set.pubsub != nil {
			set.pubsub.Start() // idempotent; arms best-effort bcast + late joiners
		}
	}
	for _, t := range c.spawns {
		var err error
		switch t.Arrival.Kind {
		case heug.Periodic:
			err = c.StartPeriodic(t.Name)
		case heug.Sporadic:
			err = c.StartSporadicWorstCase(t.Name)
		}
		if err != nil {
			panic(err)
		}
	}
	c.spawns = nil
	until := c.eng.Now().Add(d)
	// The scrape ticks ride the registry's one chain, which took its
	// place in the event order at the first Run, where an eager layout
	// of them would have been pushed; each window stops at until, so a
	// run that drains the queue to idle ends, and a horizon split into
	// several runs scrapes as one run would.
	c.metrics.ArmUntil(until)
	c.eng.Run(until)
	return c.ResultNow()
}
