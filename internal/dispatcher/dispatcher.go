package dispatcher

import (
	"errors"
	"fmt"

	"hades/internal/heug"
	"hades/internal/monitor"
	"hades/internal/netsim"
	"hades/internal/simkern"
	"hades/internal/vtime"
)

// Dispatcher is the system-wide generic dispatcher. One instance manages
// every node of a run ("the dispatcher uses a distributed set of
// threads", §3.2.1); determinism comes from the single-threaded engine.
type Dispatcher struct {
	eng   *simkern.Engine
	net   *netsim.Network // nil for single-node systems
	costs CostBook

	tasks         map[string]*TaskRuntime
	conds         map[string]*condVar
	nodes         map[int]*nodeState
	live          map[instKey]*Instance
	pendingRemote map[uint64]pendingCrossing // omission watchdogs by message ID

	// CancelOnMiss aborts an instance's remaining threads when its
	// deadline passes, marking them orphans (§3.2.1 monitoring; the
	// "switching of modes of operation in case of failure" hook).
	CancelOnMiss bool

	stats     Stats
	threadSeq uint64    // last Thread.seqNo handed out
	holders   []*Thread // the start test's scratch
}

// Stats aggregates dispatcher-level counters for the harness.
type Stats struct {
	Activations       int
	Completions       int
	DeadlineMisses    int
	ArrivalViolations int
	EarlyTerminations int
	Orphans           int
	Deadlocks         int
	NetworkOmissions  int
	LatestMisses      int
	Rejections        int // activations rejected by admission (planning)
}

type instKey struct {
	task string
	seq  uint64
}

// App is one application: a set of tasks under one scheduler and one
// resource policy (the application-domain-dependent choices of §2.2.1).
type App struct {
	Name   string
	sched  Scheduler
	policy ResourcePolicy
	tasks  []*TaskRuntime
	hosts  map[int]*schedHost // per node
	disp   *Dispatcher
}

// TaskRuntime carries the per-task runtime state and statistics.
type TaskRuntime struct {
	Task *heug.Task
	App  *App

	seq         uint64
	lastArrival vtime.Time
	haveArrival bool
	// grants holds, per EU, the names of the resources the unit takes:
	// its held list once granted, one read-only slice every instance
	// shares.
	grants [][]string

	// Statistics.
	Activations int
	Completions int
	Misses      int
	MaxResponse vtime.Duration
	sumResponse vtime.Duration
}

// AvgResponse returns the mean response time over completed instances.
func (tr *TaskRuntime) AvgResponse() vtime.Duration {
	if tr.Completions == 0 {
		return 0
	}
	return tr.sumResponse / vtime.Duration(tr.Completions)
}

type condVar struct {
	set      bool
	waiters  []*Thread
	watchers []func()
}

type nodeState struct {
	proc      *simkern.Processor
	resources map[string]*resource
	ordered   []*resource // the same resources, in creation order
	// waiters are threads blocked on resource acquisition on this node,
	// re-evaluated at every release in deterministic order.
	waiters []*Thread
}

// New creates a dispatcher over the engine (and network, which may be
// nil) with the given cost book. It installs the §4.2 clock tick on
// every processor already registered with the engine.
func New(eng *simkern.Engine, net *netsim.Network, costs CostBook) *Dispatcher {
	d := &Dispatcher{
		eng:           eng,
		net:           net,
		costs:         costs,
		tasks:         make(map[string]*TaskRuntime),
		conds:         make(map[string]*condVar),
		nodes:         make(map[int]*nodeState),
		live:          make(map[instKey]*Instance),
		pendingRemote: make(map[uint64]pendingCrossing),
	}
	for _, p := range eng.Processors() {
		d.nodes[p.ID()] = &nodeState{proc: p, resources: make(map[string]*resource)}
		if costs.ClockTickPeriod > 0 {
			p.StartClockTick(costs.ClockTickPeriod, costs.ClockTickWCET)
		}
	}
	if net != nil {
		for _, p := range eng.Processors() {
			id := p.ID()
			net.Bind(id, remotePort, func(m *netsim.Message) { d.receiveRemote(m) })
		}
	}
	return d
}

// Now implements the Primitive interface: the current virtual time.
func (d *Dispatcher) Now() vtime.Time { return d.eng.Now() }

// Stats returns a snapshot of the dispatcher counters.
func (d *Dispatcher) Stats() Stats { return d.stats }

// node returns the state for a processor id, creating it lazily for
// processors added after New.
func (d *Dispatcher) node(id int) *nodeState {
	ns := d.nodes[id]
	if ns == nil {
		procs := d.eng.Processors()
		if id < 0 || id >= len(procs) {
			panic(fmt.Sprintf("dispatcher: unknown node %d", id))
		}
		ns = &nodeState{proc: procs[id], resources: make(map[string]*resource)}
		d.nodes[id] = ns
	}
	return ns
}

// RegisterApp creates an application with the given scheduler and
// resource policy. A nil policy means plain locking.
func (d *Dispatcher) RegisterApp(name string, sched Scheduler, policy ResourcePolicy) *App {
	if policy == nil {
		policy = NoPolicy{}
	}
	app := &App{Name: name, sched: sched, policy: policy, hosts: make(map[int]*schedHost), disp: d}
	return app
}

// Tasks returns the application's task runtimes in registration order.
func (a *App) Tasks() []*TaskRuntime { return a.tasks }

// AddTask registers a validated HEUG task with the application.
func (a *App) AddTask(t *heug.Task) (*TaskRuntime, error) {
	if !t.Validated() {
		if err := t.Validate(); err != nil {
			return nil, err
		}
	}
	if _, dup := a.disp.tasks[t.Name]; dup {
		return nil, fmt.Errorf("dispatcher: task %q already registered", t.Name)
	}
	for _, e := range t.EUs {
		if e.Code != nil && e.Code.Prio > PrioAppMax {
			return nil, fmt.Errorf("dispatcher: task %q EU %q priority %d above application band %d", t.Name, e.Name, e.Code.Prio, PrioAppMax)
		}
	}
	tr := &TaskRuntime{Task: t, App: a, grants: make([][]string, len(t.EUs))}
	for i, e := range t.EUs {
		if e.Code != nil {
			for _, req := range e.Code.Resources {
				tr.grants[i] = append(tr.grants[i], req.Resource)
			}
		}
	}
	a.tasks = append(a.tasks, tr)
	a.disp.tasks[t.Name] = tr
	return tr, nil
}

// Seal finishes application setup: the scheduler performs its static
// assignment (Init) and the resource policy computes its ceilings. Call
// after all AddTask calls and before the first activation.
func (a *App) Seal() {
	ts := make([]*heug.Task, len(a.tasks))
	for i, tr := range a.tasks {
		ts[i] = tr.Task
	}
	a.sched.Init(ts)
	a.policy.Init(ts, a.disp)
}

// Task returns the runtime for a registered task name.
func (d *Dispatcher) Task(name string) (*TaskRuntime, bool) {
	tr, ok := d.tasks[name]
	return tr, ok
}

// Errors returned by Activate.
var (
	ErrUnknownTask       = errors.New("dispatcher: unknown task")
	ErrAdmissionRejected = errors.New("dispatcher: activation rejected by admission test")
)

// Activate requests the activation of a task instance now, as triggered
// by a timer, an interrupt or an Inv_EU (§3.1.2). It performs the
// arrival-law monitoring of §3.2.1 and asks an Admitter scheduler to
// admit the request, then builds the instance and charges C_start_inv
// before any unit runs.
func (d *Dispatcher) Activate(taskName string) (*Instance, error) {
	tr, ok := d.tasks[taskName]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTask, taskName)
	}
	now := d.eng.Now()

	if viol, detail := tr.checkArrival(now); viol {
		d.stats.ArrivalViolations++
		d.eng.Recordf(monitor.KindArrivalLawViolation, tr.primaryNode(), taskName, "%s", detail)
	}
	tr.lastArrival, tr.haveArrival = now, true

	if adm, ok := tr.App.sched.(Admitter); ok && !adm.Admit(tr.Task, now) {
		d.stats.Rejections++
		d.eng.Recordf(monitor.KindNotification, tr.primaryNode(), taskName, "activation rejected by guarantee test")
		return nil, fmt.Errorf("%w: task %q at %s", ErrAdmissionRejected, taskName, now)
	}
	return d.buildInstance(tr), nil
}

// checkArrival implements the arrival-law violation detection.
func (tr *TaskRuntime) checkArrival(now vtime.Time) (bool, string) {
	if !tr.haveArrival {
		return false, ""
	}
	gap := now.Sub(tr.lastArrival)
	switch tr.Task.Arrival.Kind {
	case heug.Periodic:
		if gap != tr.Task.Arrival.Period {
			return true, fmt.Sprintf("gap %s != period %s", gap, tr.Task.Arrival.Period)
		}
	case heug.Sporadic:
		if gap < tr.Task.Arrival.Period {
			return true, fmt.Sprintf("gap %s < pseudo-period %s", gap, tr.Task.Arrival.Period)
		}
	}
	return false, ""
}

// primaryNode returns the node of the task's first EU, used for events
// not tied to a specific thread.
func (tr *TaskRuntime) primaryNode() int { return tr.Task.EUs[0].NodeOf() }

// setCond sets a system-wide condition variable, re-evaluates every
// thread waiting on it (§3.1.1) and fires registered watchers.
func (d *Dispatcher) setCond(name string) {
	cv := d.cond(name)
	if cv.set {
		return
	}
	cv.set = true
	d.eng.Recordf(monitor.KindCondSet, -1, name, "")
	waiters := cv.waiters
	cv.waiters = nil
	for _, th := range waiters {
		d.evaluate(th)
	}
	for _, w := range cv.watchers {
		w()
	}
}

// WatchCond registers fn to run every time the named condition variable
// transitions from clear to set. Together with Activate this realises
// the §3.1.2 event-triggered activation ("requests to activate a task
// instance can be triggered by an Inv_EU, the expiration of a timer or
// when an interrupt is triggered") for software-observed events.
func (d *Dispatcher) WatchCond(name string, fn func()) {
	cv := d.cond(name)
	cv.watchers = append(cv.watchers, fn)
}

// clearCond clears a condition variable.
func (d *Dispatcher) clearCond(name string) {
	cv := d.cond(name)
	if !cv.set {
		return
	}
	cv.set = false
	d.eng.Recordf(monitor.KindCondClear, -1, name, "")
}

func (d *Dispatcher) cond(name string) *condVar {
	cv := d.conds[name]
	if cv == nil {
		cv = &condVar{}
		d.conds[name] = cv
	}
	return cv
}
