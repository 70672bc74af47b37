package feasibility

import (
	"sort"

	"hades/internal/vtime"
)

// PriorityOrder selects the static-priority assignment analysed by the
// response-time test.
type PriorityOrder uint8

// Priority orders.
const (
	// RateMonotonic orders by period: shorter period → higher priority.
	RateMonotonic PriorityOrder = iota + 1
	// DeadlineMonotonic orders by relative deadline.
	DeadlineMonotonic
)

// Response is the analysed worst-case response time of one task.
type Response struct {
	Task     string
	R        vtime.Duration
	Blocking vtime.Duration
	Meets    bool
}

// ResponseTime performs exact response-time analysis for fixed-priority
// preemptive scheduling (D ≤ T), the classic recurrence
//
//	R_i = C'_i + B_i + Σ_{j ∈ hp(i)} ceil(R_i/T_j)·C'_j + sched + kern
//
// extended with the §4 middleware costs in the manner of [BTW95] (which
// §5.3 cites as prior art for Deadline Monotonic): WCETs are inflated
// with dispatcher constants, scheduler notifications and kernel
// interrupts interfere as sporadic highest-priority activities. With
// ov == nil the test is the idealised textbook analysis. Blocking uses
// the PCP/SRP single-critical-section bound: the longest critical
// section of a lower-priority task whose resource is shared with an
// equal-or-higher-priority task.
func ResponseTime(tasks []Task, order PriorityOrder, ov *Overheads) ([]Response, bool) {
	sorted := make([]Task, len(tasks))
	copy(sorted, tasks)
	sort.SliceStable(sorted, func(i, j int) bool {
		switch order {
		case DeadlineMonotonic:
			return sorted[i].D < sorted[j].D
		default:
			return sorted[i].T < sorted[j].T
		}
	})
	out := make([]Response, len(sorted))
	all := true
	for i, t := range sorted {
		b := fpBlocking(sorted, i, ov)
		r, converged := fixpoint(sorted, i, b, ov)
		meets := converged && r <= t.D
		out[i] = Response{Task: t.Name, R: r, Blocking: b, Meets: meets}
		if !meets {
			all = false
		}
	}
	return out, all
}

// fpBlocking is the fixed-priority blocking bound for the task at index
// i of the priority-sorted slice.
func fpBlocking(sorted []Task, i int, ov *Overheads) vtime.Duration {
	var blocking vtime.Duration
	for j := i + 1; j < len(sorted); j++ {
		lp := sorted[j]
		if lp.CS == 0 {
			continue
		}
		shared := false
		for k := 0; k <= i; k++ {
			if sorted[k].Resource == lp.Resource && sorted[k].Resource != "" {
				shared = true
				break
			}
		}
		if !shared {
			continue
		}
		cs := lp.CS
		if ov != nil {
			cs = ov.inflateB(cs)
		}
		if cs > blocking {
			blocking = cs
		}
	}
	return blocking
}

// fixpoint iterates the response-time recurrence for sorted[i].
func fixpoint(sorted []Task, i int, blocking vtime.Duration, ov *Overheads) (vtime.Duration, bool) {
	t := sorted[i]
	r := effectiveC(t, ov) + blocking
	for iter := 0; iter < maxBusyIterations; iter++ {
		next := effectiveC(t, ov) + blocking
		for j := 0; j < i; j++ {
			hp := sorted[j]
			next += vtime.Duration(vtime.CeilDiv(r, hp.T)) * effectiveC(hp, ov)
		}
		if ov != nil {
			next += ov.schedDemand(sorted, r) + ov.kernelDemand(r)
		}
		if next == r {
			return r, true
		}
		if next > 10*t.D && t.D > 0 {
			return next, false // diverging well past the deadline
		}
		r = next
	}
	return r, false
}
