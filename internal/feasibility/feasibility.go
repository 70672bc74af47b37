// Package feasibility implements the scheduling tests of the paper:
// Liu–Layland's RM utilisation bound [LL73], exact response-time
// analysis for fixed priorities with middleware overheads (in the spirit
// of [BTW95], which §5.3 cites as the fixed-priority analogue), Spuri's
// processor-demand test for EDF with SRP blocking ([Spu96] theorem 7.1),
// and — the paper's contribution — the §5.3 *cost-integrated* variant
// that folds every dispatcher, scheduler and kernel activity of §4 into
// the test.
//
// The central safety argument of the paper (§2.2.2) is reproduced by
// experiment E-S5: a feasibility test that ignores middleware costs can
// admit task sets that miss deadlines once real overheads apply, while
// the cost-integrated test only admits sets that the simulator — which
// charges the same CostBook at the same points — runs without misses.
package feasibility

import (
	"fmt"
	"math"

	"hades/internal/dispatcher"
	"hades/internal/heug"
	"hades/internal/vtime"
)

// Task is the analysis-level task model of §5.1 ([Spu96]): a sporadic
// task with arbitrary deadline, a single outermost critical section, and
// the structural counts the §5.3 cost integration needs.
type Task struct {
	Name string
	// C is the worst-case computation time (c_before + cs + c_after).
	C vtime.Duration
	// D is the relative deadline.
	D vtime.Duration
	// T is the period (periodic) or pseudo-period (sporadic).
	T vtime.Duration
	// CS is the worst-case critical-section length (0 = no resource).
	CS vtime.Duration
	// Resource is the resource guarded by the critical section.
	Resource string
	// NumEU is the number of Code_EUs of the task's HEUG (the Figure 3
	// translation yields one per non-empty c_before, cs, c_after).
	NumEU int
	// LocalEdges is the number of its precedence constraints whose two
	// ends share a node.
	LocalEdges int
}

// FromHEUG derives the §5.1 analysis task from the HEUG task the
// dispatcher runs. It is the one derivation of the analysis model, so
// the §5.3 inflation charges exactly the units and edges execution
// accounts: C sums the Code_EUs' WCETs and NumEU counts them;
// LocalEdges counts the precedence edges whose two ends share a node (a
// remote edge is a NetMsg invocation, not a C_prec_local); CS and
// Resource come from the one unit that holds a resource; D is the task
// deadline and T its arrival period. A task outside §5.1 — aperiodic,
// with an Inv_EU, or with more than one critical section — is an
// error. A task spread over nodes still sums into one uniprocessor task.
func FromHEUG(h *heug.Task) (Task, error) {
	if h.Arrival.Kind == heug.Aperiodic {
		return Task{}, fmt.Errorf("feasibility: task %q is aperiodic, outside the §5.1 model", h.Name)
	}
	t := Task{Name: h.Name, D: h.Deadline, T: h.Arrival.Period, NumEU: len(h.EUs)}
	held := false
	for _, eu := range h.EUs {
		if !eu.IsCode() {
			return Task{}, fmt.Errorf("feasibility: task %q: unit %q is an Inv_EU, outside the §5.1 model", h.Name, eu.Name)
		}
		t.C += eu.Code.WCET
		if len(eu.Code.Resources) == 0 {
			continue
		}
		if held || len(eu.Code.Resources) > 1 {
			return Task{}, fmt.Errorf("feasibility: task %q holds more than one critical section, outside the §5.1 model", h.Name)
		}
		held = true
		t.CS, t.Resource = eu.Code.WCET, eu.Code.Resources[0].Resource
	}
	for _, e := range h.Edges {
		if h.EUs[e.From].NodeOf() == h.EUs[e.To].NodeOf() {
			t.LocalEdges++
		}
	}
	return t, nil
}

// Utilization returns the total utilisation of a task set.
func Utilization(tasks []Task) float64 {
	u := 0.0
	for _, t := range tasks {
		u += float64(t.C) / float64(t.T)
	}
	return u
}

// Verdict is the outcome of a feasibility test.
type Verdict struct {
	Feasible bool
	// Why describes the first violated condition when infeasible.
	Why string
	// BusyPeriod is the synchronous busy period the demand test scanned
	// (EDF tests only).
	BusyPeriod vtime.Duration
	// FailAt is the first deadline whose demand exceeded supply.
	FailAt vtime.Duration
	// Checked is the number of deadlines examined.
	Checked int
}

// Overheads configures the §5.3 cost integration. The zero value (or a
// nil pointer where accepted) means the idealised, cost-free analysis.
type Overheads struct {
	// Book is the dispatcher/kernel cost book, shared with the
	// simulator so analysis and execution account identical events.
	Book dispatcher.CostBook
	// SchedCost is C_sched: the scheduler's per-notification cost.
	SchedCost vtime.Duration
	// NotifsPerInstance is the number of scheduler notifications one
	// task instance generates; the dispatcher emits Atv and Trm per
	// Code_EU thread, so it defaults to 2·NumEU when zero.
	NotifsPerInstance int
	// NetReceivePath and NetPseudoPeriod describe the §4.2 ATM-card
	// activity (w_atm + protocol WCET, minimum message gap). Zero
	// period disables the term.
	NetReceivePath  vtime.Duration
	NetPseudoPeriod vtime.Duration
	// ViewChangeBlackout is the membership term: the worst-case
	// view-change window (detection + agreement + install,
	// membership.Service.Bound()) during which a failover may preempt
	// the node's application work at service priority. Charged as a
	// one-shot highest-priority demand against every deadline, it
	// makes the admission test answer the composed question of §2.2:
	// does the task set stay schedulable across one failover window?
	// Zero disables the term.
	ViewChangeBlackout vtime.Duration
}

// notifs returns the notification count for a task.
func (ov *Overheads) notifs(t Task) int64 {
	if ov.NotifsPerInstance > 0 {
		return int64(ov.NotifsPerInstance)
	}
	return int64(2 * t.NumEU)
}

// inflateC implements the §5.3 WCET inflation: per Code_EU the start and
// end action costs, per local precedence constraint C_prec_local, per
// instance the invocation bracket C_start_inv + C_end_inv, plus a
// context-switch allowance. The instance runs NumEU+2 kernel threads
// (EU bodies plus the activation/termination brackets); each costs a
// dispatch-in and a switch-away, and each of its starts may preempt
// another thread whose later *resume* is a third switch — hence the
// conservative 3·(NumEU+2) switches charged to the instance itself.
func (ov *Overheads) inflateC(t Task) vtime.Duration {
	b := ov.Book
	c := t.C
	n := vtime.Duration(t.NumEU)
	c += n * (b.StartAction + b.EndAction)
	c += vtime.Duration(t.LocalEdges) * b.PrecLocal
	c += b.StartInv + b.EndInv
	c += b.SwitchCost * 3 * (n + 2)
	return c
}

// inflateB implements the §5.3 blocking inflation: the blocking section
// carries its own start/end action costs (B'_i = B_i + C_start + C_end).
func (ov *Overheads) inflateB(blocking vtime.Duration) vtime.Duration {
	if blocking == 0 {
		return 0
	}
	return blocking + ov.Book.StartAction + ov.Book.EndAction
}

// schedDemand is the §5.3 scheduler term: the CPU consumed by scheduler
// notification processing during an interval of length l, at the
// highest priority. Each notification costs C_sched plus three context
// switches (into the scheduler thread, out of it, and the resume of
// whatever application thread it preempted).
func (ov *Overheads) schedDemand(tasks []Task, l vtime.Duration) vtime.Duration {
	if l <= 0 {
		return 0
	}
	var sum vtime.Duration
	per := ov.SchedCost + 3*ov.Book.SwitchCost
	if per == 0 {
		return 0
	}
	for _, t := range tasks {
		sum += vtime.Duration(vtime.CeilDiv(l, t.T)*ov.notifs(t)) * per
	}
	return sum
}

// kernelDemand is the §5.3 kernel term: clock-tick and network-interrupt
// CPU during an interval of length l, both modelled as sporadic
// activities at the highest priority exactly as §4.2 prescribes.
func (ov *Overheads) kernelDemand(l vtime.Duration) vtime.Duration {
	if l <= 0 {
		return 0
	}
	var sum vtime.Duration
	if b := ov.Book; b.ClockTickPeriod > 0 && b.ClockTickWCET > 0 {
		sum += vtime.Duration(vtime.CeilDiv(l, b.ClockTickPeriod)) * b.ClockTickWCET
	}
	if ov.NetPseudoPeriod > 0 && ov.NetReceivePath > 0 {
		sum += vtime.Duration(vtime.CeilDiv(l, ov.NetPseudoPeriod)) * ov.NetReceivePath
	}
	return sum
}

// effectiveC returns the (possibly inflated) WCET of t.
func effectiveC(t Task, ov *Overheads) vtime.Duration {
	if ov == nil {
		return t.C
	}
	return ov.inflateC(t)
}

// LiuLayland applies the classic RM sufficient utilisation bound
// U ≤ n(2^{1/n}−1) [LL73] for implicit-deadline periodic tasks.
func LiuLayland(tasks []Task) Verdict {
	if len(tasks) == 0 {
		return Verdict{Feasible: true}
	}
	u := Utilization(tasks)
	n := float64(len(tasks))
	bound := n * (math.Pow(2, 1/n) - 1)
	if u <= bound {
		return Verdict{Feasible: true}
	}
	return Verdict{Feasible: false, Why: fmt.Sprintf("U=%.4f exceeds LL bound %.4f", u, bound)}
}
