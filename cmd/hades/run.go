package main

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"os"

	"hades/internal/cluster"
	"hades/internal/trace"
)

// runCmd runs a scenario — a task set under a chosen scheduler and
// resource protocol on a described cluster (nodes, bounded-delay links,
// placement, fault schedules) — and reports per-task statistics,
// violations and whichever plane reports were asked for. -trace exports
// the run's retained causal traces as Chrome trace-event JSON, loadable
// in Perfetto (https://ui.perfetto.dev) or chrome://tracing; -metrics
// exports the virtual-time metrics timeline (per-interval series, SLO
// breach windows, hot keys) as JSON for hades metrics.
func runCmd(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("run", stderr)
	var (
		open        = scenarioFlags(fs)
		traceOut    = fs.String("trace", "", "export retained causal traces as Chrome trace-event JSON to this file (Perfetto-loadable)")
		metricsOut  = fs.String("metrics", "", "export the metrics timeline (per-interval series, SLO breaches, hot keys) as JSON to this file")
		percentiles = fs.Bool("percentiles", false, "print the per-shard, per-op-class latency percentile table")
		events      = fs.Bool("events", false, "print the full monitor event trace")
		gantt       = fs.Bool("gantt", false, "print a per-node CPU occupancy chart")
		views       = fs.Bool("views", false, "print per-node membership view histories")
		partRep     = fs.Bool("partition", false, "print per-group partition/quorum/merge report")
		shardRep    = fs.Bool("shards", false, "print the sharded data plane routing report")
		txnRep      = fs.Bool("txns", false, "print the cross-shard transaction report")
		pubsubRep   = fs.Bool("pubsub", false, "print the pub/sub plane report (per-topic QoS stats and delivery verdict)")
	)
	if fs.Parse(args) != nil {
		return exitUsage
	}
	spec, clu, rep, err := simulate(open)
	if err != nil {
		return cannot(stderr, "run", err)
	}
	fmt.Fprintf(stdout, "scenario %q: %d node(s), %d link(s), %d fault(s), scheduler %s, policy %s, costs %s\n",
		spec.Name, spec.Nodes, len(spec.Links), len(spec.Faults), spec.Scheduler, cmp.Or(spec.Policy, "none"), cmp.Or(spec.Costs, "default"))
	fmt.Fprint(stdout, rep)
	if len(rep.Violations) > 0 {
		fmt.Fprintf(stdout, "violations (%d):\n", len(rep.Violations))
		for _, v := range rep.Violations {
			fmt.Fprintln(stdout, " ", v)
		}
	}
	if *percentiles {
		tr := clu.Tracer()
		if tr == nil {
			return cannot(stderr, "run", errors.New("-percentiles needs tracing enabled (the scenario disabled it)"))
		}
		started, finished, retained, violating := tr.Counts()
		fmt.Fprintf(stdout, "--- latency percentiles (traces: started=%d finished=%d retained=%d violating=%d, sample rate %g) ---\n",
			started, finished, retained, violating, tr.Rate())
		for _, l := range rep.Latency {
			shard := fmt.Sprintf("shard %d", l.Shard)
			if l.Shard < 0 {
				shard = "all shards"
			}
			fmt.Fprintf(stdout, "  %-11s %-9s n=%-5d p50=%-10s p99=%-10s p999=%-10s max=%s\n",
				l.Class, shard, l.Count, l.P50, l.P99, l.P999, l.Max)
			fmt.Fprintf(stdout, "    mean=%s = queue %s + batch %s + wire %s + replicate %s + lock %s + other %s\n",
				l.Mean, l.Queued, l.Batched, l.Wire, l.Replicating, l.Locked, l.Other)
		}
	}
	if *views {
		for _, g := range clu.Groups() {
			mem := g.Membership()
			fmt.Fprintf(stdout, "--- group %s (view-change bound %s) ---\n", mem.Name(), mem.Bound())
			for _, node := range mem.Nodes() {
				fmt.Fprintf(stdout, "  n%d:", node)
				for _, v := range mem.History(node) {
					fmt.Fprintf(stdout, " %s", v)
				}
				fmt.Fprintln(stdout)
			}
			for _, in := range mem.Installs {
				if in.View.ID == 1 {
					continue
				}
				fmt.Fprintf(stdout, "  install n%d %s at %s (%s, lat %s)\n", in.Node, in.View, in.At, in.Reason, in.Latency)
			}
		}
	}
	if *partRep {
		for _, g := range clu.Groups() {
			mem := g.Membership()
			fmt.Fprintf(stdout, "--- group %s partition report ---\n", mem.Name())
			fmt.Fprintf(stdout, "  quorum: %d of %s; no-quorum time %s\n", mem.Quorum(), mem.Agreed(), mem.NoQuorumTime())
			for _, node := range mem.Nodes() {
				if b := mem.BlockedTime(node); b > 0 {
					fmt.Fprintf(stdout, "  n%d blocked (excluded while alive): %s\n", node, b)
				}
			}
			for _, mg := range mem.Merges {
				fmt.Fprintf(stdout, "  merge %s at %s readmitted %v (heal %s, latency %s)\n",
					mg.View, mg.At, mg.Readmitted, mg.HealAt, mg.Latency)
			}
			flushed := mem.FlushedMessages()
			for _, rep := range g.Replicas() {
				flushed += rep.Flushed
			}
			fmt.Fprintf(stdout, "  flushed at view boundaries: %d message(s)\n", flushed)
		}
	}
	if *shardRep {
		for _, set := range clu.ShardSets() {
			fmt.Fprintln(stdout, "--- sharded data plane ---")
			for _, g := range set.Groups() {
				rep := g.Replication()
				fmt.Fprintf(stdout, "  %s nodes=%v primary=n%d style=%s\n", g.Name(), g.Nodes(), rep.Primary(), rep.Style())
				fmt.Fprintf(stdout, "    requests=%d served=%d redirects=%d blocked=%d duplicates=%d applied=%d\n",
					g.Stats.Requests, g.Stats.Served, g.Stats.Redirects, g.Stats.Blocked, rep.Duplicates,
					rep.Machine(rep.Primary()).Applied)
				for _, fo := range rep.Failovers {
					fmt.Fprintf(stdout, "    failover n%d -> n%d in view %d at %s\n", fo.From, fo.To, fo.InView, fo.At)
				}
			}
			fmt.Fprintf(stdout, "  router republishes: %d\n", set.Router().Republishes)
			for _, cl := range set.Clients() {
				st := cl.Stats
				fmt.Fprintf(stdout, "  client n%d (%s): submitted=%d acked=%d redirects=%d retries=%d queued=%d resubmitted=%d failed=%d blocked=%d\n",
					cl.Node(), cl.Params().Policy, st.Submitted, st.Acked, st.Redirects, st.Retries,
					st.Queued, st.Resubmitted, st.FailedFast, st.Blocked)
				fmt.Fprintf(stdout, "    latency avg=%s max=%s\n", st.AvgLatency(), st.MaxLatency)
				if bs := cl.BatchStats(); bs.Batches > 0 {
					fmt.Fprintf(stdout, "    batches=%d ops=%d maxOps=%d fullFlushes=%d timerFlushes=%d stalls=%d hist=[%s]\n",
						bs.Batches, bs.Ops, bs.MaxBatchOps, bs.FullFlushes, bs.TimerFlushes, bs.Stalls, bs.HistString())
					fmt.Fprintf(stdout, "    pipeline depth: %v\n", cl.MaxInflight())
				}
			}
			if err := set.Check(); err != nil {
				fmt.Fprintf(stdout, "  CONSISTENCY VIOLATION: %v\n", err)
			} else {
				fmt.Fprintln(stdout, "  consistency: every acked request applied exactly once, per-key order intact")
			}
		}
	}
	if *txnRep {
		for _, set := range clu.ShardSets() {
			plane := set.TxnPlane()
			fmt.Fprintln(stdout, "--- cross-shard transactions ---")
			for i, co := range plane.Coordinators() {
				pa := plane.Participants()[i]
				fmt.Fprintf(stdout, "  %s: coord begins=%d commits=%d aborts=%d (deadline=%d) queries=%d groupCommits=%d maxDecisionBatch=%d\n",
					co.Group().Name(), co.Stats.Begins, co.Stats.Commits, co.Stats.Aborts,
					co.Stats.DeadlineAborts, co.Stats.Queries, co.GroupCommits, co.MaxDecisionBatch)
				fmt.Fprintf(stdout, "    part prepares=%d lockWaits=%d votes=%d/%d commits=%d aborts=%d deadlineReleases=%d locksHeld=%d\n",
					pa.Stats.Prepares, pa.Stats.LockWaits, pa.Stats.VotesYes, pa.Stats.VotesNo,
					pa.Stats.Commits, pa.Stats.Aborts, pa.Stats.DeadlineReleases, pa.LockedKeys())
			}
			for _, tc := range plane.Clients() {
				st := tc.Stats
				fmt.Fprintf(stdout, "  client n%d: begun=%d committed=%d aborted=%d (deadline=%d) retries=%d queued=%d resubmitted=%d\n",
					tc.Node(), st.Begun, st.Committed, st.Aborted, st.DeadlineAborts, st.Retries, st.Queued, st.Resubmitted)
				fmt.Fprintf(stdout, "    latency avg=%s max=%s\n", st.AvgLatency(), st.MaxLatency)
			}
			if err := set.CheckTxns(); err != nil {
				fmt.Fprintf(stdout, "  ATOMICITY VIOLATION: %v\n", err)
			} else {
				fmt.Fprintln(stdout, "  atomicity: committed transfers all-or-nothing, aborted ones write nothing, no lock past its deadline")
			}
		}
	}
	if *pubsubRep {
		any := false
		for _, set := range clu.ShardSets() {
			p := set.PubSubPlane()
			if p == nil {
				continue
			}
			any = true
			fmt.Fprintln(stdout, "--- pub/sub plane ---")
			for _, st := range p.Stats() {
				fmt.Fprintf(stdout, "  %s\n", st)
			}
			for _, t := range p.Topics() {
				for _, sub := range p.Subscribers(t.Name()) {
					late := ""
					if sub.JoinTime() > 0 {
						late = fmt.Sprintf(" joinAt=%s", sub.JoinTime())
					}
					fmt.Fprintf(stdout, "  sub n%-2d %-12s delivered=%-5d suppressedDups=%d%s\n",
						sub.Node(), t.Name(), len(sub.Deliveries()), sub.Suppressed(), late)
				}
			}
			if err := set.CheckPubSub(); err != nil {
				fmt.Fprintf(stdout, "  QOS VIOLATION: %v\n", err)
			} else {
				fmt.Fprintln(stdout, "  qos: deliveries exactly-once per subscriber, history within depth, deadline misses accounted")
			}
		}
		if !any {
			fmt.Fprintln(stdout, "--- pub/sub plane: none declared ---")
		}
	}
	if *gantt {
		for node := 0; node < spec.Nodes; node++ {
			fmt.Fprintf(stdout, "--- gantt node %d ---\n", node)
			fmt.Fprint(stdout, clu.Log().Gantt(node, 0, clu.Now(), 100))
		}
	}
	if *events {
		fmt.Fprintln(stdout, "--- events ---")
		if err := clu.Log().WriteTrace(stdout); err != nil {
			return cannot(stderr, "run", err)
		}
	}
	if *traceOut != "" {
		tr := clu.Tracer()
		if tr == nil {
			return cannot(stderr, "run", errors.New("-trace needs tracing enabled (the scenario disabled it)"))
		}
		write := func(w io.Writer) error { return trace.WriteChrome(w, tr.Retained()) }
		if err := export(*traceOut, "trace", write); err != nil {
			return cannot(stderr, "run", err)
		}
		_, _, retained, _ := tr.Counts()
		fmt.Fprintf(stdout, "wrote %d trace(s) to %s (load in https://ui.perfetto.dev)\n", retained, *traceOut)
	}
	if *metricsOut != "" {
		reg := clu.Metrics()
		if reg == nil {
			return cannot(stderr, "run", errors.New("-metrics needs the metrics plane enabled (the scenario disabled it)"))
		}
		if err := export(*metricsOut, "metrics", reg.WriteJSON); err != nil {
			return cannot(stderr, "run", err)
		}
		ex := reg.Export()
		fmt.Fprintf(stdout, "wrote %d series (%d scrapes) to %s (inspect with hades metrics)\n",
			len(ex.Series), ex.Scrapes, *metricsOut)
	}
	// The audits gate the exit code whether or not their report was
	// requested, and only after every requested export has been written,
	// so CI keeps the artifacts of a failing run.
	if err := verify(clu); err != nil {
		fmt.Fprintf(stderr, "hades run: verification failed: %v\n", err)
		return exitBad
	}
	return exitOK
}

// export creates path, lets write fill it and closes it; what names
// the artifact.
func export(path, what string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("cannot write %s file: %v", what, err)
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing %s: %v", path, err)
	}
	return nil
}

// verify is the end-of-run audit; tests swap it to force a failure.
var verify = (*cluster.Cluster).Verify
