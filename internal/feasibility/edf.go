package feasibility

import (
	"fmt"
	"sort"

	"hades/internal/vtime"
)

// maxBusyIterations bounds the busy-period fixpoint computation.
const maxBusyIterations = 10000

// srpBlocking returns B(l): the worst-case blocking a deadline at
// distance l can suffer under EDF+SRP — the longest critical section of
// a task with relative deadline greater than l whose resource is also
// used by some task with relative deadline at most l (only then does the
// resource's preemption ceiling reach the blocked band). This is the
// blocking term of [Spu96] theorem 7.1 specialised to single outer
// critical sections.
func srpBlocking(tasks []Task, l vtime.Duration, ov *Overheads) vtime.Duration {
	var blocking vtime.Duration
	for _, j := range tasks {
		if j.CS == 0 || j.D <= l {
			continue
		}
		shared := false
		for _, k := range tasks {
			if k.Name != j.Name && k.D <= l && k.Resource == j.Resource && k.Resource != "" {
				shared = true
				break
			}
		}
		if !shared {
			continue
		}
		cs := j.CS
		if ov != nil {
			cs = ov.inflateB(cs)
		}
		if cs > blocking {
			blocking = cs
		}
	}
	return blocking
}

// demand returns h(l): the processor demand of jobs with both release
// and deadline inside a synchronous interval of length l:
// Σ_{D_i ≤ l} (floor((l−D_i)/T_i)+1)·C_i, with WCETs inflated when
// overheads apply.
func demand(tasks []Task, l vtime.Duration, ov *Overheads) vtime.Duration {
	var h vtime.Duration
	for _, t := range tasks {
		if t.D > l {
			continue
		}
		jobs := vtime.FloorDiv(l-t.D, t.T) + 1
		h += vtime.Duration(jobs) * effectiveC(t, ov)
	}
	return h
}

// maxBusyPeriod caps the busy-period search: loads whose busy period
// exceeds this are treated as divergent (utilisation ≥ 1 with
// overheads). Generous: four orders of magnitude above realistic
// hyperperiods for the paper's 1–100 ms task domain.
const maxBusyPeriod = vtime.Duration(1) << 45 // ≈ 9.7 hours

// busyPeriod computes the length of the synchronous busy period: the
// smallest fixpoint of L = Σ ceil(L/T_i)·C'_i + sched(L) + kern(L).
// It returns 0 and false when the load diverges (utilisation ≥ 1
// including overheads). The iteration is monotone nondecreasing, so a
// decrease can only mean int64 overflow — also divergence.
func busyPeriod(tasks []Task, ov *Overheads) (vtime.Duration, bool) {
	var l vtime.Duration
	for _, t := range tasks {
		l += effectiveC(t, ov)
	}
	if l == 0 {
		return 0, true
	}
	for iter := 0; iter < maxBusyIterations; iter++ {
		var next vtime.Duration
		for _, t := range tasks {
			next += vtime.Duration(vtime.CeilDiv(l, t.T)) * effectiveC(t, ov)
		}
		if ov != nil {
			next += ov.schedDemand(tasks, l) + ov.kernelDemand(l) + ov.ViewChangeBlackout
		}
		if next == l {
			return l, true
		}
		if next < l || next > maxBusyPeriod {
			return 0, false
		}
		l = next
	}
	return 0, false
}

// EDFSpuri is the processor-demand feasibility test for EDF with SRP of
// [Spu96] theorem 7.1 (the paper's §5.1): every absolute deadline d in
// the first synchronous busy period must satisfy
//
//	h(d) + B(d) ≤ d                               (naive, ov == nil)
//	h'(d) + B'(d) + sched(d) + kern(d) + V ≤ d    (§5.3 cost-integrated)
//
// where the primed quantities fold in the §4.1 dispatcher constants,
// the sched/kern terms are the scheduler and kernel activities that
// "always execute at a higher priority" (§5.3 withdraws them from the
// available time — moved to the left-hand side here, equivalently),
// and V is the optional view-change blackout (one membership failover
// window, membership.Service.Bound(), charged once at top priority).
func EDFSpuri(tasks []Task, ov *Overheads) Verdict {
	if len(tasks) == 0 {
		return Verdict{Feasible: true}
	}
	// Quick necessary condition: utilisation below 1.
	u := 0.0
	for _, t := range tasks {
		u += float64(effectiveC(t, ov)) / float64(t.T)
	}
	if u > 1 {
		return Verdict{Feasible: false, Why: fmt.Sprintf("utilisation %.4f > 1 (with overheads)", u)}
	}
	lstar, ok := busyPeriod(tasks, ov)
	if !ok {
		return Verdict{Feasible: false, Why: "busy period diverges"}
	}
	// Collect every absolute deadline within the busy period.
	var points []vtime.Duration
	for _, t := range tasks {
		for d := t.D; d <= lstar; d += t.T {
			points = append(points, d)
			if t.T == 0 {
				break
			}
		}
	}
	sort.Slice(points, func(i, j int) bool { return points[i] < points[j] })
	checked := 0
	var last vtime.Duration = -1
	for _, d := range points {
		if d == last {
			continue
		}
		last = d
		checked++
		need := demand(tasks, d, ov) + srpBlocking(tasks, d, ov)
		if ov != nil {
			need += ov.schedDemand(tasks, d) + ov.kernelDemand(d) + ov.ViewChangeBlackout
		}
		if need > d {
			return Verdict{
				Feasible:   false,
				Why:        fmt.Sprintf("demand %s exceeds interval %s", need, d),
				BusyPeriod: lstar,
				FailAt:     d,
				Checked:    checked,
			}
		}
	}
	return Verdict{Feasible: true, BusyPeriod: lstar, Checked: checked}
}
