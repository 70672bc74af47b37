package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"hades/internal/cluster"
	"hades/internal/monitor"
	"hades/internal/pubsub"
	"hades/internal/scenario"
	"hades/internal/vtime"
)

// account is what one finished run means in ops: how many were
// attempted, how many completed, how many fell outside their contract,
// and the latency distribution of the sampled ops. Every field is a
// pure function of (code, scenario file).
type account struct {
	// Attempted counts ops offered; Ops the ones that completed (the
	// numerator of both throughput metrics); Lost the ones that never
	// completed by the horizon; Degraded the completed ones outside
	// their contract (aborted transfers, deliveries past deadline,
	// instances past deadline).
	Attempted int64
	Ops       int64
	Lost      int64
	Degraded  int64
	// Samples is the latency sample count behind P50/P99.
	Samples int
	P50     vtime.Duration
	P99     vtime.Duration
	Max     vtime.Duration
	// WindowNs is the virtual load window goodput divides by.
	WindowNs int64
}

func (a account) okRatio() float64 {
	if a.Attempted == 0 {
		return 0
	}
	return 1 - float64(a.Lost+a.Degraded)/float64(a.Attempted)
}

// vt renders the account's deterministic metrics; reps of one scenario
// file must agree on every one of them bit for bit.
func (a account) vt() map[string]float64 {
	return map[string]float64{
		"vt_ack_p50_us":         float64(a.P50) / 1e3,
		"vt_ack_p99_us":         float64(a.P99) / 1e3,
		"vt_ack_max_ms":         float64(a.Max) / 1e6,
		"vt_goodput_ops_per_vs": float64(a.Ops) / (float64(a.WindowNs) / 1e9),
		"ok_ratio":              a.okRatio(),
	}
}

// rep is one Load+Build+Run+finish cycle.
type rep struct {
	acct   account
	host   map[string]float64 // host-clock end-to-end metrics of this rep
	runS   float64            // wall seconds inside Cluster.Run
	events uint64
	logLen int    // monitor events retained
	digest string // SHA-256 of the report bytes
	// counts are the per-workload ledger counts read from the Result,
	// which the rep does not keep: a retained Result would sit in the
	// heap the next rep's retained_heap_mb measures.
	counts  map[string]float64
	quarter [4]slice // filled by traced reps only
	verify  map[string]float64
}

// slice is one quarter of a traced run.
type slice struct {
	wallNs int64
	events uint64
}

// pct indexes a sorted sample the way load.LatencyStats does, so the
// percentiles computed here line up with the generator rows.
func pct(sorted []vtime.Duration, q float64) vtime.Duration {
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// accountOf reads the workload's ops and latencies out of a finished
// cluster. See the README for the per-kind definitions.
func accountOf(w workload, spec scenario.Spec, c *cluster.Cluster, res cluster.Result) (account, error) {
	a := account{WindowNs: int64(msd(spec.HorizonMs - drainMs))}
	switch w.kind {
	case kindKV, kindTxn:
		sampled := "open"
		if w.kind == kindTxn {
			sampled = "xfer"
		}
		for _, l := range res.Loads {
			a.Attempted += l.Offered
			a.Ops += l.Acked
			if l.Name == sampled {
				a.Samples, a.P50, a.P99, a.Max = l.Latency.Count, l.Latency.P50, l.Latency.P99, l.Latency.Max
			}
		}
		if a.Samples == 0 {
			return a, fmt.Errorf("%s: load generator %q recorded no latency", w.name, sampled)
		}
		a.Lost = a.Attempted - a.Ops
		for _, t := range res.TxnClients {
			a.Degraded += int64(t.Aborted)
		}
	case kindPubSub:
		// Latency samples the reliable topics only: a best-effort sample
		// is delivered at exactly the broadcast bound (4.82 ms here) on
		// every subscriber, a constant that carries no information and
		// puts a cliff right where p99 falls.
		plane := c.ShardSets()[0].PubSubPlane()
		var lat []vtime.Duration
		for _, t := range plane.Topics() {
			st := t.Stats()
			reliable := st.QoS.Reliability == pubsub.Reliable
			for _, s := range plane.Subscribers(t.Name()) {
				live := int64(0)
				for _, d := range s.Deliveries() {
					if d.Replay {
						continue
					}
					live++
					if reliable {
						lat = append(lat, d.Latency)
					}
				}
				a.Ops += live
				if s.JoinTime() == 0 {
					// A from-start subscriber is owed every sample.
					a.Lost += int64(st.Published) - live
				}
			}
			a.Degraded += int64(st.DeadlineMiss)
		}
		a.Attempted = a.Ops + a.Lost
		if len(lat) == 0 {
			return a, fmt.Errorf("%s: no live deliveries", w.name)
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		a.Samples, a.P50, a.P99, a.Max = len(lat), pct(lat, 0.50), pct(lat, 0.99), lat[len(lat)-1]
	case kindRT:
		a.WindowNs = int64(spec.Horizon())
		st := res.Stats
		a.Ops = int64(st.Completions)
		a.Lost = int64(st.Rejections + st.Orphans)
		a.Degraded = int64(st.DeadlineMisses + st.NetworkOmissions)
		a.Attempted = a.Ops + a.Lost
		// The retained monitor head holds the first few thousand
		// completions; the maximum comes from the per-task record, which
		// covers every instance.
		var lat []vtime.Duration
		for _, ev := range c.Log().ByKind(monitor.KindTaskComplete) {
			d, err := parseResp(ev.Detail)
			if err != nil {
				return a, fmt.Errorf("%s: %w", w.name, err)
			}
			lat = append(lat, d)
		}
		if len(lat) == 0 {
			return a, fmt.Errorf("%s: no TaskDone events retained", w.name)
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		a.Samples, a.P50, a.P99 = len(lat), pct(lat, 0.50), pct(lat, 0.99)
		for _, t := range res.Tasks {
			if t.MaxResponse > a.Max {
				a.Max = t.MaxResponse
			}
		}
	}
	if a.Ops == 0 {
		return a, fmt.Errorf("%s: no op completed", w.name)
	}
	return a, nil
}

func msd(ms float64) vtime.Duration { return vtime.Duration(ms * float64(vtime.Millisecond)) }

// parseResp reads the "resp=<duration>" detail of a TaskDone event
// (vtime.Duration's rendering: ns, us, ms or s with up to 3 decimals).
func parseResp(detail string) (vtime.Duration, error) {
	s, ok := strings.CutPrefix(detail, "resp=")
	if !ok {
		return 0, fmt.Errorf("TaskDone detail %q has no resp=", detail)
	}
	for _, u := range []struct {
		suffix string
		scale  vtime.Duration
	}{{"ns", 1}, {"us", vtime.Microsecond}, {"ms", vtime.Millisecond}, {"s", vtime.Second}} {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			f, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, fmt.Errorf("TaskDone detail %q: %w", detail, err)
			}
			return vtime.Duration(f*float64(u.scale) + 0.5), nil
		}
	}
	return 0, fmt.Errorf("TaskDone detail %q has no unit", detail)
}

// verifyRun runs every verifier the workload admits on the finished
// cluster and returns the seconds each took (zero for the planes the
// workload has none of).
func verifyRun(w workload, c *cluster.Cluster, res cluster.Result, rec *recorder, parent int) (map[string]float64, error) {
	took := map[string]float64{"shard": 0, "txn": 0, "pubsub": 0}
	timed := func(name string, fn func() error) error {
		sp := rec.start("verify."+name, parent)
		t0 := time.Now()
		err := fn()
		took[name] += time.Since(t0).Seconds()
		rec.end(sp)
		return err
	}
	for _, set := range c.ShardSets() {
		if err := timed("shard", func() error {
			if w.strict {
				return set.Check()
			}
			// Passive shards lose acknowledged work since the last
			// checkpoint by design, so the apply-log audit does not
			// apply; what must still hold is that every offered op was
			// acked, and acked once.
			for _, cl := range set.Clients() {
				seen := make(map[uint64]bool, len(cl.Acks))
				for _, ack := range cl.Acks {
					if seen[ack.Seq] {
						return fmt.Errorf("client n%d: seq %d acked twice", cl.Node(), ack.Seq)
					}
					seen[ack.Seq] = true
				}
				if len(cl.Acks) != cl.Stats.Submitted {
					return fmt.Errorf("client n%d: %d of %d submissions acked", cl.Node(), len(cl.Acks), cl.Stats.Submitted)
				}
			}
			return nil
		}); err != nil {
			return took, err
		}
		if err := timed("txn", set.CheckTxns); err != nil {
			return took, err
		}
		if err := timed("pubsub", set.CheckPubSub); err != nil {
			return took, err
		}
	}
	for _, v := range res.Violations {
		// Deliveries past the topic deadline during the failover window
		// are the one violation kind a workload here expects.
		if w.kind == kindPubSub && v.Kind == monitor.KindDeadlineMiss {
			continue
		}
		return took, fmt.Errorf("unexpected monitor violation: %s", v)
	}
	return took, nil
}

// finish is what follows a run: ResultNow, every verifier, ReportNow,
// Validate, and the JSON encode (into the digest).
func (r *rep) finish(w workload, spec scenario.Spec, c *cluster.Cluster, rec *recorder, root int) (cluster.Result, error) {
	sp := rec.start("cluster.result", root)
	res := c.ResultNow()
	rec.end(sp)
	var err error
	if r.verify, err = verifyRun(w, c, res, rec, root); err != nil {
		return res, fmt.Errorf("%s: verify: %w", w.name, err)
	}
	sp = rec.start("report.build", root)
	doc := c.ReportNow(spec.Name)
	rec.end(sp)
	if err := doc.Validate(); err != nil {
		return res, fmt.Errorf("%s: invalid report: %w", w.name, err)
	}
	sp = rec.start("report.encode", root)
	sum := sha256.New()
	err = doc.WriteJSON(sum)
	rec.end(sp)
	if err != nil {
		return res, err
	}
	r.digest = hex.EncodeToString(sum.Sum(nil))
	return res, nil
}

// runRep performs one cycle on the scenario file. rec is nil in timed
// reps; a traced rep passes a recorder and runs the horizon in four
// slices so cost per event can be compared early against late.
func runRep(w workload, path string, rec *recorder) (*rep, error) {
	runtime.GC()
	root := rec.start("workload", 0)
	defer rec.end(root)

	sp := rec.start("scenario.load", root)
	spec, err := scenario.Load(path)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	sp = rec.start("scenario.build", root)
	c, err := spec.Build()
	rec.end(sp)
	if err != nil {
		return nil, err
	}

	r := &rep{host: map[string]float64{}}
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	if rec == nil {
		c.Run(spec.Horizon())
	} else {
		runSp := rec.start("cluster.run", root)
		left := spec.Horizon()
		for q := range r.quarter {
			d := spec.Horizon() / 4
			if q == 3 {
				d = left
			}
			left -= d
			qs := rec.start(fmt.Sprintf("run.q%d", q+1), runSp)
			e0, tq := c.Engine().EventsFired(), time.Now()
			c.Run(d)
			r.quarter[q] = slice{wallNs: time.Since(tq).Nanoseconds(), events: c.Engine().EventsFired() - e0}
			rec.attr(qs, "events", int64(r.quarter[q].events))
			rec.end(qs)
		}
		rec.end(runSp)
	}
	r.runS = time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	r.events, r.logLen = c.Engine().EventsFired(), c.Log().Len()

	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m2)

	// The finish sequence only observes, so it can run again: a timed
	// rep takes the median of three passes (each is tens of
	// milliseconds, short enough for one interruption to double it); a
	// traced rep runs it once, under spans.
	passes := 3
	if rec != nil {
		passes = 1
	}
	took := make([]float64, passes)
	var res cluster.Result
	for i := range took {
		t1 := time.Now()
		if res, err = r.finish(w, spec, c, rec, root); err != nil {
			return nil, err
		}
		took[i] = time.Since(t1).Seconds()
	}
	_, finish, _ := quartiles(took)

	r.acct, err = accountOf(w, spec, c, res)
	if err != nil {
		return nil, err
	}
	r.counts = counts(r, res)
	ops := float64(r.acct.Ops)
	r.host["host_ops_per_s"] = ops / r.runS
	r.host["allocs_per_op"] = float64(m1.Mallocs-m0.Mallocs) / ops
	r.host["bytes_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / ops
	r.host["retained_heap_mb"] = float64(m2.HeapAlloc) / 1e6
	r.host["finish_s"] = finish
	runtime.KeepAlive(c)
	return r, nil
}

// measureSetup times Load+Build cycles on the scenario file for about
// half a second (20 to 200 cycles) and returns each cycle's seconds.
func measureSetup(path string) ([]float64, error) {
	var out []float64
	start := time.Now()
	for len(out) < 20 || (len(out) < 200 && time.Since(start) < 500*time.Millisecond) {
		t0 := time.Now()
		spec, err := scenario.Load(path)
		if err != nil {
			return nil, err
		}
		if _, err := spec.Build(); err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0).Seconds())
	}
	return out, nil
}

// sameVT checks the determinism contract between two reps of one
// scenario file: every virtual-time metric and the report digest.
func sameVT(a, b *rep) error {
	if a.digest != b.digest {
		return fmt.Errorf("report digest differs between reps: %s vs %s", a.digest, b.digest)
	}
	av, bv := a.acct.vt(), b.acct.vt()
	for name, v := range av {
		if bv[name] != v {
			return fmt.Errorf("%s differs between reps: %v vs %v", name, v, bv[name])
		}
	}
	return nil
}
