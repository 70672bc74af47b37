// Package heug implements the HADES generic task model (§3 of the paper).
//
// Every activity in HADES — application task, middleware service, or
// scheduler — is a task: a directed acyclic graph of elementary units
// (a "HEUG", Hades Elementary Unit Graph). An elementary unit here is a
// Code_EU: a sequence of code with a known worst-case execution time,
// statically assigned to a processor, touching only processor-local
// resources. (The paper's Inv_EU, a request to execute another task,
// is not modelled; no run declares one.) Edges are precedence constraints, optionally
// carrying named parameters that transfer data between units; a
// constraint whose endpoints live on different processors is *remote*
// and models an invocation of the NetMsg communication task.
//
// Synchronisation beyond precedence uses processor-local resources
// (shared/exclusive access modes) and system-wide boolean condition
// variables, which a Code_EU may wait on before starting. Actions
// themselves may not block — the paper forbids synchronisation inside
// actions so their WCETs remain well-defined (§3.3); this API enforces
// that structurally: an Action is a straight-line effect function that
// executes at the unit's completion instant.
package heug

import (
	"hades/internal/vtime"
)

// ArrivalKind classifies a task's activation-request arrival law (§3.1.2).
type ArrivalKind uint8

// Arrival laws.
const (
	// Periodic: successive activations separated by exactly Period.
	Periodic ArrivalKind = iota + 1
	// Sporadic: successive activations separated by at least Period
	// (the pseudo-period).
	Sporadic
	// Aperiodic: arbitrary separation; no law to enforce or monitor.
	Aperiodic
)

// String returns the law's name.
func (k ArrivalKind) String() string {
	switch k {
	case Periodic:
		return "periodic"
	case Sporadic:
		return "sporadic"
	case Aperiodic:
		return "aperiodic"
	default:
		return "unknown"
	}
}

// Arrival is a task's activation law. For Periodic tasks Period is the
// period and Offset the release offset of the first activation; for
// Sporadic tasks Period is the pseudo-period (minimum inter-arrival
// time); for Aperiodic tasks both fields are ignored.
type Arrival struct {
	Kind   ArrivalKind
	Period vtime.Duration
	Offset vtime.Duration
}

// PeriodicEvery returns a periodic arrival law.
func PeriodicEvery(period vtime.Duration) Arrival {
	return Arrival{Kind: Periodic, Period: period}
}

// SporadicEvery returns a sporadic arrival law with the given
// pseudo-period.
func SporadicEvery(pseudoPeriod vtime.Duration) Arrival {
	return Arrival{Kind: Sporadic, Period: pseudoPeriod}
}

// AperiodicLaw returns the aperiodic (unconstrained) arrival law.
func AperiodicLaw() Arrival { return Arrival{Kind: Aperiodic} }

// AccessMode controls simultaneous use of a resource (§3.1.1).
type AccessMode uint8

// Access modes.
const (
	// Shared allows any number of concurrent shared holders.
	Shared AccessMode = iota + 1
	// Exclusive allows a single holder.
	Exclusive
)

// String returns the mode's name.
func (m AccessMode) String() string {
	if m == Shared {
		return "shared"
	}
	return "exclusive"
}

// ResourceReq names a resource a Code_EU needs for its whole execution,
// with the requested access mode. All resources are granted before the
// unit starts and released when it ends — the task model's way of making
// blocking times statically analysable.
type ResourceReq struct {
	Resource string
	Mode     AccessMode
}

// ActionContext is the execution context handed to an action. It is
// implemented by the dispatcher. All effects (parameter writes and
// condition variable updates) are applied at the unit's completion
// instant, on the unit's processor.
type ActionContext interface {
	// Instance returns the activation sequence number (1-based) of the
	// task instance this unit belongs to.
	Instance() uint64
	// In returns the value carried by the named in-edge parameter,
	// or (nil, false) when absent.
	In(param string) (any, bool)
	// Out sets the value carried on all out-edges declaring param.
	Out(param string, value any)
	// SetCond sets a system-wide condition variable (§3.1.1).
	SetCond(name string)
	// ClearCond clears a system-wide condition variable.
	ClearCond(name string)
}

// Action is the effect function of a Code_EU. It must not block — the
// unit's CPU demand is modelled by its WCET, and the action's effects
// apply atomically at completion.
type Action func(ctx ActionContext)

// CodeEU is a sequence of code with statically known cost (§3.1).
type CodeEU struct {
	// Node is the processor the unit is statically assigned to.
	Node int
	// WCET is the unit's worst-case execution time (w).
	WCET vtime.Duration
	// ActualWork, when non-nil, gives the effective execution time of a
	// given activation (≤ WCET for a correct task). The dispatcher uses
	// it to exercise early-termination monitoring; nil means the unit
	// always consumes its full WCET.
	ActualWork func(instance uint64) vtime.Duration
	// Prio is the unit's base priority (prio). Schedulers may override
	// it statically (RM) or dynamically (EDF) via the dispatcher
	// primitive.
	Prio int
	// PT is the preemption threshold; 0 means equal to Prio.
	PT int
	// Earliest is the earliest start time, relative to the task
	// activation instant. The unit may not start before it (§3.1.2).
	Earliest vtime.Duration
	// Latest is the latest allowed start time relative to activation;
	// the dispatcher's monitoring flags a violation beyond it. Zero
	// means unconstrained.
	Latest vtime.Duration
	// Deadline is a unit-level deadline relative to activation, used by
	// monitoring. Zero means the task deadline applies.
	Deadline vtime.Duration
	// Resources are acquired (in the declared order) before the unit
	// starts and released at its end.
	Resources []ResourceReq
	// WaitConds lists condition variables that must all be set before
	// the unit may start.
	WaitConds []string
	// Action is the effect function run at completion (may be nil).
	Action Action
}

// EU is one elementary unit, a Code_EU.
type EU struct {
	Name string
	Code *CodeEU
}

// NodeOf returns the processor the unit is assigned to.
func (e *EU) NodeOf() int { return e.Code.Node }

// Edge is a precedence constraint between two units of the same task,
// identified by EU index. Params names the values transferred from the
// source's Out(...) calls to the destination's In(...) reads.
type Edge struct {
	From, To int
	Params   []string
}

// Task is a HEUG: a finite set of elementary units partially ordered by
// precedence constraints, with task-level timing attributes (§3.1.2).
type Task struct {
	Name string
	// Deadline D is relative to the activation request instant.
	Deadline vtime.Duration
	// Arrival is the activation-request law, used by the dispatcher's
	// monitoring (§3.1.2).
	Arrival Arrival
	EUs     []*EU
	Edges   []Edge

	preds, succs [][]int // adjacency by EU index, built by Validate
	validated    bool
}

// Preds returns the indices of eu's precedence predecessors. Valid only
// after Validate.
func (t *Task) Preds(eu int) []int { return t.preds[eu] }

// Validated reports whether Validate succeeded on this task.
func (t *Task) Validated() bool { return t.validated }

// euIndex returns the index of the named unit, or -1.
func (t *Task) euIndex(name string) int {
	for i, e := range t.EUs {
		if e.Name == name {
			return i
		}
	}
	return -1
}

// IsRemote reports whether the i-th edge crosses processors (a remote
// precedence constraint, which the dispatcher turns into a NetMsg
// invocation).
func (t *Task) IsRemote(edge int) bool {
	e := t.Edges[edge]
	return t.EUs[e.From].NodeOf() != t.EUs[e.To].NodeOf()
}

// TotalWCET sums the WCETs of all Code_EUs: the task's worst-case pure
// computation demand (excluding dispatcher costs).
func (t *Task) TotalWCET() vtime.Duration {
	var sum vtime.Duration
	for _, e := range t.EUs {
		sum += e.Code.WCET
	}
	return sum
}
