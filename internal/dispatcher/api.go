// Package dispatcher implements the generic HADES dispatcher of §3.2.
//
// The dispatcher is the application-domain-independent half of the
// scheduling machinery: it allocates resources (CPU included) to tasks,
// enforces the four runnable conditions of §3.2.1, monitors execution
// (deadlines, arrival laws, early terminations, orphans, network
// omissions), checks §3.3's no-hold-and-wait rule where a unit is
// refused its resources, and charges every §4.1 dispatcher activity on the
// simulated CPU timeline. Scheduling *policy* lives outside, behind the
// Scheduler interface: the dispatcher feeds each scheduler a FIFO of
// notifications (Atv, Trm, Rac, Rre) and exposes a single primitive to
// change a thread's priority and/or earliest start time — exactly the
// cooperation protocol of §3.2.2 and Figure 2. Unlike MARS or MAFT,
// where scheduler and dispatcher form one component, the separation
// makes multiple scheduling policies supportable (§2.2.1).
package dispatcher

import (
	"math"

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

// Primitive is the dispatcher's side of the §3.2.2 cooperation
// protocol: the single primitive that modifies the earliest start time
// and/or the priority of a thread, and the clock a policy decides
// against. Schedulers receive it with every notification; resource
// policies receive it once, at Init.
type Primitive interface {
	// SetPriority changes th's priority (both while waiting and while
	// ready/running; a change triggers an immediate rescheduling pass).
	SetPriority(th *Thread, prio int)
	// SetEarliest changes th's earliest start time (absolute). Lowering
	// it below now makes the thread immediately eligible.
	SetEarliest(th *Thread, at vtime.Time)
	// Now returns the current virtual time.
	Now() vtime.Time
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

// Admitter is an optional Scheduler extension: policies with a dynamic
// guarantee test (planning-based scheduling, e.g. Spring [RSS90]) admit
// or reject each activation request before the dispatcher builds the
// instance. Activate asks the App's scheduler when it is one.
type Admitter interface {
	Admit(task *heug.Task, at vtime.Time) bool
}

// ResourcePolicy is a resource-access protocol (§3.3, footnote 2: SRP
// and PCP) as the static tables the dispatcher's start test reads. The
// dispatcher alone records who holds what. It grants a Code_EU its
// resources, all at once, only when every one is free in a compatible
// mode and the thread's Level strictly exceeds its node's system
// ceiling: the highest Ceiling among the resources that other threads
// of the same App hold there (none held: no bound). The test runs when
// the thread becomes ready (§3.2.1's fourth runnable condition), for
// every Code_EU, resource user or not. Where it refuses one, it checks
// §3.3's no-hold-and-wait rule: no thread in the way waits while it
// holds, else a DEADLOCK is recorded. One policy instance serves one
// App.
type ResourcePolicy interface {
	// Init is called once at Seal, after the scheduler's Init, with the
	// application's tasks, so the protocol can compute its levels and
	// ceilings from the declared use sets. A protocol with priority
	// inheritance (an Inheritor) keeps prim.
	Init(tasks []*heug.Task, prim Primitive)
	// Level is th's side of the start test.
	Level(th *Thread) int
	// Ceiling is the ceiling of resource r on node.
	Ceiling(node int, r string) int
}

// Inheritor is an optional ResourcePolicy extension for protocols with
// priority inheritance (PCP): the dispatcher tells it who blocks whom
// and who released.
type Inheritor interface {
	// OnBlocked reports that blocked may not start, with the threads in
	// its way in creation order: those holding one of its resources in
	// a conflicting mode, and those of its App whose holds raise the
	// system ceiling to its level.
	OnBlocked(blocked *Thread, holders []*Thread)
	// OnRelease reports that th released all its resources.
	OnRelease(th *Thread)
}

// NoPolicy is the protocol-free resource policy: plain mode-compatible
// locking with no start test (subject to priority-inversion anomalies;
// experiment E-X2 demonstrates them).
type NoPolicy struct{}

// Init implements ResourcePolicy.
func (NoPolicy) Init([]*heug.Task, Primitive) {}

// Level implements ResourcePolicy: above every ceiling.
func (NoPolicy) Level(*Thread) int { return math.MaxInt }

// Ceiling implements ResourcePolicy.
func (NoPolicy) Ceiling(int, string) int { return 0 }
