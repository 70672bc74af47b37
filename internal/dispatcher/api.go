// Package dispatcher implements the generic HADES dispatcher of §3.2.
//
// The dispatcher is the application-domain-independent half of the
// scheduling machinery: it allocates resources (CPU included) to tasks,
// enforces the four runnable conditions of §3.2.1, monitors execution
// (deadlines, arrival laws, early terminations, orphans, deadlocks,
// network omissions) and charges every §4.1 dispatcher activity on the
// simulated CPU timeline. Scheduling *policy* lives outside, behind the
// Scheduler interface: the dispatcher feeds each scheduler a FIFO of
// notifications (Atv, Trm, Rac, Rre) and exposes a single primitive to
// change a thread's priority and/or earliest start time — exactly the
// cooperation protocol of §3.2.2 and Figure 2. Unlike MARS or MAFT,
// where scheduler and dispatcher form one component, the separation
// makes multiple scheduling policies supportable (§2.2.1).
package dispatcher

import (
	"hades/internal/heug"
	"hades/internal/vtime"
)

// Priority bands. Application threads must stay at or below PrioAppMax;
// the band above is reserved for the middleware (schedulers, NetMsg) and
// the kernel, mirroring §3.1.2's reservation of prio_max.
const (
	// PrioAppMax is the highest priority an application Code_EU may use.
	PrioAppMax = 1<<20 - 1000
	// PrioScheduler is the priority of scheduler tasks: above every
	// application thread (Figure 2 runs the EDF scheduler thread at the
	// highest priority), below interrupts.
	PrioScheduler = 1<<20 - 1
)

// NotifKind enumerates the notifications of §3.2.2.
type NotifKind uint8

// Notification kinds.
const (
	// NotifAtv reports a thread activation.
	NotifAtv NotifKind = iota + 1
	// NotifTrm reports a thread termination.
	NotifTrm
	// NotifRac reports a request to access shared resources.
	NotifRac
	// NotifRre reports a release of shared resources.
	NotifRre
)

// String returns the paper's mnemonic for the kind.
func (k NotifKind) String() string {
	switch k {
	case NotifAtv:
		return "Atv"
	case NotifTrm:
		return "Trm"
	case NotifRac:
		return "Rac"
	case NotifRre:
		return "Rre"
	default:
		return "?"
	}
}

// Notification is one entry of the dispatcher→scheduler FIFO queue.
type Notification struct {
	Kind   NotifKind
	Thread *Thread
}

// Primitive is the single dispatcher primitive of §3.2.2: it modifies
// the earliest start time of a thread and/or its priority. Schedulers
// receive it with every notification.
type Primitive interface {
	// SetPriority changes th's priority (both while waiting and while
	// ready/running; a change triggers an immediate rescheduling pass).
	SetPriority(th *Thread, prio int)
	// SetEarliest changes th's earliest start time (absolute). Lowering
	// it below now makes the thread immediately eligible.
	SetEarliest(th *Thread, at vtime.Time)
}

// Scheduler is a scheduling policy: the application-domain-dependent
// component of §2.2.1. One Scheduler instance serves one application.
type Scheduler interface {
	// Name identifies the policy ("EDF", "RM", ...).
	Name() string
	// Cost is the WCET for processing one notification (C_sched in
	// §5.3); it is charged on the CPU where the notification occurred.
	Cost() vtime.Duration
	// Wants filters the notification kinds the policy needs; unwanted
	// kinds are not enqueued (and cost nothing).
	Wants(k NotifKind) bool
	// Init is called once at registration with the application's
	// tasks; static policies (RM, DM) assign Code_EU priorities here.
	Init(tasks []*heug.Task)
	// Handle processes one notification, using prim to adjust threads.
	// It runs at the scheduler's completion instant on the simulated
	// timeline (after the Cost() CPU demand has been consumed).
	Handle(n Notification, prim Primitive)
}

// ResourcePolicy is the pluggable resource-access protocol consulted by
// the dispatcher when granting resources, enabling PCP and SRP (§3.3,
// footnote 2). The dispatcher enforces mode compatibility itself; the
// policy adds protocol-specific gating and priority adjustments.
type ResourcePolicy interface {
	// Name identifies the protocol ("SRP", "PCP", "none").
	Name() string
	// Init is called once with the application's tasks so the protocol
	// can compute preemption levels and resource ceilings. prim allows
	// protocols with priority inheritance (PCP) to adjust thread
	// priorities later.
	Init(tasks []*heug.Task, prim Primitive)
	// CanStart reports whether th may begin execution on its node. It
	// is consulted for every Code_EU thread, resource user or not:
	// under SRP the preemption-level vs system-ceiling test gates all
	// job starts, which is what bounds priority inversion to a single
	// critical section. th's resources are all grantable mode-wise
	// when this is called.
	CanStart(th *Thread) bool
	// OnGrant records that th acquired all its resources.
	OnGrant(th *Thread)
	// OnRelease records that th released all its resources.
	OnRelease(th *Thread)
	// OnBlocked informs the protocol that blocked cannot proceed
	// because of the given holders; PCP uses it for priority
	// inheritance (via the primitive handed at construction).
	OnBlocked(blocked *Thread, holders []*Thread)
}

// Admitter is an optional Scheduler extension: policies with a dynamic
// guarantee test (planning-based scheduling, e.g. Spring [RSS90]) admit
// or reject each activation request before the dispatcher builds the
// instance. The dispatcher wires it to every task at Seal.
type Admitter interface {
	Admit(task *heug.Task, at vtime.Time) bool
}

// NoPolicy is the protocol-free resource policy: plain mode-compatible
// locking with no extra gating (subject to priority-inversion anomalies;
// experiment E-X2 demonstrates them).
type NoPolicy struct{}

// Name implements ResourcePolicy.
func (NoPolicy) Name() string { return "none" }

// Init implements ResourcePolicy.
func (NoPolicy) Init([]*heug.Task, Primitive) {}

// CanStart implements ResourcePolicy.
func (NoPolicy) CanStart(*Thread) bool { return true }

// OnGrant implements ResourcePolicy.
func (NoPolicy) OnGrant(*Thread) {}

// OnRelease implements ResourcePolicy.
func (NoPolicy) OnRelease(*Thread) {}

// OnBlocked implements ResourcePolicy.
func (NoPolicy) OnBlocked(*Thread, []*Thread) {}
