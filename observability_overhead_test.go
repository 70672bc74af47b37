package hades_test

// Overhead and passivity checks for the observability planes (causal
// tracing and virtual-time metrics).
//
// TestObservabilityOverheadGate is the CI gate behind the planes' cost
// budgets on the high-fanout KV workload (highFanoutKV, bench_test.go):
// tracing at the default sample rate, the always-on metrics plane
// (instruments wired through every layer, scrapes every 5ms of virtual
// time), and the two together — the whole-stack number, because
// separate budgets compose to something nobody has measured unless it
// is measured. Comparing two independent
// `go test -bench` processes cannot resolve single-digit percentages —
// run-to-run machine drift alone moves ns/op by 10-30% — so each leg is
// a *paired* ratio: off and on alternate within one process, every
// repetition contributes a pair taken under the same machine
// conditions, and the statistic is the ratio of the two summed
// runtimes. With 120+ reps the paired ratio reproduces within a couple
// of points; measured on a quiet machine each plane sits around 4-6%
// (the trace package itself profiles at ~2.5% CPU with zero
// steady-state allocations; the rest is cache and allocator
// second-order cost).
//
// The gate is opt-in because it runs the workload hundreds of times:
// HADES_OVERHEAD_GATE is the number of paired repetitions per leg (CI's
// bench job uses 120).
//
// TestTracingPassive and TestMetricsPassive pin down that both planes
// are pure observation: with a plane off, on, or on at its loudest
// setting, the simulation behaves identically event for event.

import (
	"fmt"
	"hash/fnv"
	"os"
	"slices"
	"strconv"
	"testing"
	"time"

	"hades/internal/cluster"
	"hades/internal/metrics"
	"hades/internal/monitor"
)

// planeBudget is each observability plane's cost contract: on at its
// defaults, a plane should cost no more than this fraction of runtime
// versus disabled. Both planes on may cost the sum.
const planeBudget = 0.05

// overheadNoiseAllowance absorbs the residual jitter of the paired
// measurement on shared CI runners (a couple of points even with
// pairing). A leg fails past budget+allowance — loose enough not to
// flake, tight enough to catch any real regression in a plane's hot
// path.
const overheadNoiseAllowance = 0.03

// timeHighFanoutKV runs highFanoutKV once under the given tracing and
// metrics parameters (nil = the cluster default) and returns its
// wall-clock runtime.
func timeHighFanoutKV(tp *cluster.TraceParams, mp *cluster.MetricsParams) time.Duration {
	t0 := time.Now()
	_, _, cl := highFanoutKV(cluster.Config{Trace: tp, Metrics: mp}, nil)
	if cl.Stats.Acked != cl.Stats.Submitted {
		panic("overhead workload: ack mismatch")
	}
	return time.Since(t0)
}

// pairedOverhead returns the fractional cost of on over off across reps
// paired repetitions, alternating which leg runs first so slow drift
// (GC state, thermal, noisy neighbours) cancels instead of biasing one
// leg.
func pairedOverhead(reps int, off, on func() time.Duration) float64 {
	var offSum, onSum time.Duration
	for i := 0; i < reps; i++ {
		if i%2 == 0 {
			offSum += off()
			onSum += on()
		} else {
			onSum += on()
			offSum += off()
		}
	}
	return float64(onSum)/float64(offSum) - 1
}

func TestObservabilityOverheadGate(t *testing.T) {
	v := os.Getenv("HADES_OVERHEAD_GATE")
	if v == "" {
		t.Skip("paired overhead gate is opt-in: set HADES_OVERHEAD_GATE to the repetitions per leg (CI: 120)")
	}
	reps, err := strconv.Atoi(v)
	if err != nil || reps < 2 {
		t.Fatalf("bad HADES_OVERHEAD_GATE %q: want the number of paired repetitions (>= 2)", v)
	}
	traceOff := &cluster.TraceParams{Disabled: true}
	metricsOff := &cluster.MetricsParams{Disabled: true}
	for _, leg := range []struct {
		name    string
		off, on func() time.Duration
		budget  float64
	}{
		{"trace", func() time.Duration { return timeHighFanoutKV(traceOff, nil) },
			func() time.Duration { return timeHighFanoutKV(nil, nil) }, planeBudget},
		{"metrics", func() time.Duration { return timeHighFanoutKV(nil, metricsOff) },
			func() time.Duration { return timeHighFanoutKV(nil, nil) }, planeBudget},
		{"both", func() time.Duration { return timeHighFanoutKV(traceOff, metricsOff) },
			func() time.Duration { return timeHighFanoutKV(nil, nil) }, 2 * planeBudget},
	} {
		t.Run(leg.name, func(t *testing.T) {
			ratio := pairedOverhead(reps, leg.off, leg.on)
			t.Logf("paired %s overhead over %d reps: %+.1f%% (budget %.0f%% + %.0f%% noise allowance)",
				leg.name, reps, 100*ratio, 100*leg.budget, 100*overheadNoiseAllowance)
			if ratio > leg.budget+overheadNoiseAllowance {
				t.Fatalf("%s on at its defaults costs %+.1f%% vs disabled; budget is %.0f%% (+%.0f%% noise allowance)",
					leg.name, 100*ratio, 100*leg.budget, 100*overheadNoiseAllowance)
			}
		})
	}
}

// keepEveryKind asks c's monitor window for every kind: the passivity
// tests fingerprint the whole log.
func keepEveryKind(c *cluster.Cluster) { c.Log().Keep(monitor.Kinds()...) }

// TestTracingPassive pins down that tracing is pure observation: the
// simulation behaves identically with the tracer disabled, sampling
// nothing, and sampling everything. Any divergence means tracing
// leaked into scheduling, randomness or protocol state.
func TestTracingPassive(t *testing.T) {
	type fingerprint struct {
		events  int
		acked   int
		retries int
	}
	run := func(tp *cluster.TraceParams) fingerprint {
		c, _, cl := highFanoutKV(cluster.Config{Trace: tp}, keepEveryKind)
		return fingerprint{events: len(c.Log().Events()), acked: cl.Stats.Acked, retries: cl.Stats.Retries}
	}
	off := run(&cluster.TraceParams{Disabled: true})
	zero := run(&cluster.TraceParams{SampleRate: 0})
	one := run(&cluster.TraceParams{SampleRate: 1})
	if off != zero || zero != one {
		t.Fatalf("tracing is not passive: off=%+v zero=%+v one=%+v", off, zero, one)
	}
	if off.acked == 0 {
		t.Fatal("workload acked nothing; fingerprint is vacuous")
	}
}

// TestMetricsPassive: the simulation must behave identically with the
// plane off, on, and on with always-breaching SLO rules. The
// fingerprint hashes every monitor event except the SLO breach/clear
// events the plane itself emits — those are its declared output, not
// a behavioral divergence — plus the client outcome counters.
func TestMetricsPassive(t *testing.T) {
	type fingerprint struct {
		logHash uint64
		events  int
		acked   int
		retries int
	}
	run := func(mp *cluster.MetricsParams) (fingerprint, *cluster.Cluster) {
		c, _, cl := highFanoutKV(cluster.Config{Metrics: mp}, keepEveryKind)
		h := fnv.New64a()
		events := 0
		for _, e := range c.Log().Events() {
			if e.Kind == monitor.KindSLOBreach || e.Kind == monitor.KindSLOClear {
				continue
			}
			events++
			fmt.Fprintf(h, "%d|%d|%d|%s|%s\n", e.At, e.Kind, e.Node, e.Subject, e.Detail)
		}
		return fingerprint{logHash: h.Sum64(), events: events, acked: cl.Stats.Acked, retries: cl.Stats.Retries}, c
	}
	off, _ := run(&cluster.MetricsParams{Disabled: true})
	on, _ := run(nil)
	// Rules that always fail, so the probe engine exercises its whole
	// breach path while the fingerprint must stay untouched.
	loud, c := run(&cluster.MetricsParams{Rules: []metrics.Rule{
		{Name: "impossible", Metric: "kv.ack.latency", Stat: metrics.StatP99, Op: metrics.OpLE, Threshold: 1},
		{Name: "quiet-net", Metric: "net.sent", Op: metrics.OpLE, Threshold: 0},
	}})
	if off != on || on != loud {
		t.Fatalf("metrics plane is not passive: off=%+v on=%+v loud=%+v", off, on, loud)
	}
	if off.acked == 0 {
		t.Fatal("workload acked nothing; fingerprint is vacuous")
	}
	if !slices.ContainsFunc(c.Metrics().Export().SLO, func(r metrics.RuleData) bool { return len(r.Breaches) > 0 }) {
		t.Fatal("always-breaching rules recorded no breach; the loud leg proved nothing")
	}
}
