package main

import (
	"fmt"
	"io"
	"time"
)

// protocol is how a run measures: the sizes and the rep counts.
type protocol struct {
	seed int64
	// scale multiplies every workload horizon (1 normally, 0.1 -quick).
	scale float64
	// minReps is the number of timed reps; with a budget, timing goes on
	// past minReps until the budget is spent.
	minReps int
	budget  time.Duration
	// layerScale multiplies the isolated drivers' iteration counts.
	layerScale float64
	quick      bool
}

// driver reports whether this is a driver-mode run: one workload, a
// measuring budget, one JSON line.
func (p protocol) driver() bool { return p.budget > 0 }

// workloadResult is one workload's row of a results document.
type workloadResult struct {
	Name      string  `json:"name"`
	Seed      int64   `json:"seed"`
	HorizonMs float64 `json:"horizon_ms"`
	// Attempted = Ops + Lost; Degraded ops completed outside their
	// contract and count against ok_ratio together with Lost.
	Attempted int64  `json:"attempted"`
	Ops       int64  `json:"ops"`
	Lost      int64  `json:"lost"`
	Degraded  int64  `json:"degraded"`
	Events    uint64 `json:"events"`
	// Samples is the latency sample count behind vt_ack_p50/p99.
	Samples  int               `json:"latency_samples"`
	Digest   string            `json:"report_sha256"`
	EndToEnd map[string]Stat   `json:"end_to_end,omitempty"`
	PerLayer map[string]Metric `json:"per_layer,omitempty"`
}

// measureWorkload generates the workload's scenario file and runs the
// protocol on it. With ledger false it times the reps and fills the
// end-to-end metrics; with ledger true it also (driver mode: only)
// produces the workload's per-layer rows.
func measureWorkload(w workload, p protocol, ledger bool, stderr io.Writer) (*workloadResult, error) {
	horizon := w.horizonMs * p.scale
	path, err := writeScenario(outDir, w.spec(p.seed, horizon), "")
	if err != nil {
		return nil, err
	}
	out := &workloadResult{Name: w.name, Seed: p.seed, HorizonMs: horizon}
	driverLedger := ledger && p.driver()

	// One discarded warm-up rep: it grows the heap to the workload's
	// working size and is the reference every later rep must match.
	ref, err := runRep(w, path, nil)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stderr, "bench: %s seed=%d warm-up %.2fs, %d ops, %d events\n", w.name, p.seed, ref.runS, ref.acct.Ops, ref.events)
	a := ref.acct
	out.Attempted, out.Ops, out.Lost, out.Degraded = a.Attempted, a.Ops, a.Lost, a.Degraded
	out.Events, out.Samples, out.Digest = ref.events, a.Samples, ref.digest

	var reps []*rep
	minReps := p.minReps
	if driverLedger {
		minReps = 1 // the ledger only needs a warm reference time
	}
	start := time.Now()
	// fits reports whether another rep fits in what is left of the
	// driver's measuring budget (none outside driver mode).
	fits := func() bool {
		next := time.Duration(reps[len(reps)-1].runS * 1.2 * float64(time.Second))
		return !driverLedger && time.Since(start)+next < p.budget
	}
	for len(reps) < minReps || fits() {
		r, err := runRep(w, path, nil)
		if err != nil {
			return nil, err
		}
		if err := sameVT(ref, r); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		reps = append(reps, r)
	}

	if !driverLedger {
		setup, err := measureSetup(path)
		if err != nil {
			return nil, err
		}
		out.EndToEnd = map[string]Stat{"setup_s": statOf(setup, "s")}
		for _, d := range endToEnd[1:] {
			var vals []float64
			for _, r := range reps {
				if v, ok := r.host[d.name]; ok {
					vals = append(vals, v)
				} else {
					vals = append(vals, r.acct.vt()[d.name])
				}
			}
			out.EndToEnd[d.name] = statOf(vals, d.unit)
		}
	}
	if ledger {
		if err := fillLedger(out, w, p, path, ref, reps); err != nil {
			return nil, err
		}
	}
	return out, nil
}
