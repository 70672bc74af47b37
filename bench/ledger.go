package main

import (
	"hades/internal/cluster"
	"hades/internal/vtime"
)

// layerDef fixes one per-layer metric: its unit, its direction, and the
// end-to-end metric it is expected to move (the README's interaction
// table says on which workload). Per-layer metrics have no bound: they
// explain a move, they do not judge it.
type layerDef struct {
	name   string
	unit   string
	higher bool
	moves  string
}

// countDefs are the per-workload counts read back from Result/Report
// after a rep: deterministic and exact for a given scenario file.
var countDefs = []layerDef{
	{"eventq.events_per_op", "1/op", false, "host_ops_per_s"},
	{"eventq.depth_max", "count", false, "retained_heap_mb"},
	{"netsim.msgs_per_op", "1/op", false, "host_ops_per_s"},
	{"netsim.dropped", "count", false, "vt_ack_max_ms"},
	{"rbcast.fanout_per_vs", "1/vs", false, "host_ops_per_s"},
	{"membership.views", "count", false, "vt_ack_max_ms"},
	{"membership.view_change_max_us", "vus", false, "vt_ack_max_ms"},
	{"membership.blocked_ms", "vms", false, "vt_ack_max_ms"},
	{"replication.applies_per_op", "1/op", false, "host_ops_per_s"},
	{"replication.failovers", "count", false, "vt_ack_max_ms"},
	{"shard.duplicates", "count", false, "host_ops_per_s"},
	{"shard.redirects", "count", false, "vt_ack_p99_us"},
	{"shard.imbalance", "ratio", false, "vt_ack_p99_us"},
	{"session.ops_per_batch", "1/batch", true, "vt_ack_p50_us"},
	{"session.retries_per_op", "1/op", false, "vt_ack_p99_us"},
	{"session.stalls", "count", false, "vt_ack_p99_us"},
	{"txn.abort_ratio", "ratio", false, "ok_ratio"},
	{"txn.lock_waits_per_txn", "1/op", false, "vt_ack_p99_us"},
	{"txn.decisions_per_round", "1/round", true, "host_ops_per_s"},
	{"pubsub.suppressed_ratio", "ratio", false, "allocs_per_op"},
	{"pubsub.deadline_miss", "count", false, "ok_ratio"},
	{"pubsub.replayed", "count", false, "finish_s"},
	{"dispatcher.misses", "count", false, "ok_ratio"},
	{"monitor.events", "count", false, "host_ops_per_s"},
	{"monitor.dropped", "count", false, "retained_heap_mb"},
	{"load.closed_p99_us", "vus", false, "vt_goodput_ops_per_vs"},
	{"trace.vt_queue_us", "vus", false, "vt_ack_p50_us"},
	{"trace.vt_batch_us", "vus", false, "vt_ack_p50_us"},
	{"trace.vt_wire_us", "vus", false, "vt_ack_p50_us"},
	{"trace.vt_replicate_us", "vus", false, "vt_ack_p50_us"},
	{"trace.vt_lock_us", "vus", false, "vt_ack_p99_us"},
	{"trace.vt_other_us", "vus", false, "vt_ack_p50_us"},
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// counts reads the per-workload counts out of one rep. The two series
// reads (eventq.depth, rbcast.fanout) cover the metrics plane's retained
// window only — the last 256 scrape intervals at the scenario defaults.
func counts(r *rep, res cluster.Result) map[string]float64 {
	ops := float64(r.acct.Ops)
	m := map[string]float64{
		"eventq.events_per_op": ratio(float64(r.events), ops),
		"netsim.msgs_per_op":   ratio(float64(res.Net.Sent), ops),
		"netsim.dropped":       float64(res.Net.Dropped),
		"dispatcher.misses":    float64(res.Stats.DeadlineMisses),
		"monitor.events":       float64(r.logLen + res.LogDropped),
		"monitor.dropped":      float64(res.LogDropped),
	}
	if mx := res.Metrics; mx != nil {
		for _, s := range mx.Series {
			switch s.Name {
			case "eventq.depth":
				for _, p := range s.Points {
					m["eventq.depth_max"] = max(m["eventq.depth_max"], float64(p.V))
				}
			case "rbcast.fanout":
				copies := 0.0
				for _, p := range s.Points {
					copies += float64(p.V)
				}
				window := float64(len(s.Points)) * float64(mx.IntervalNs) / 1e9
				m["rbcast.fanout_per_vs"] = ratio(copies, window)
			}
		}
	}
	for _, g := range res.Groups {
		m["membership.views"] += float64(len(g.Views) - 1)
		m["membership.view_change_max_us"] = max(m["membership.view_change_max_us"], float64(g.MaxViewLatency)/1e3)
		m["membership.blocked_ms"] += float64(g.BlockedTime) / 1e6
		m["replication.failovers"] += float64(g.Failovers)
	}
	var applied, maxApplied, begins, decisions, rounds, lockWaits float64
	for _, s := range res.Shards {
		applied += float64(s.Applied)
		maxApplied = max(maxApplied, float64(s.Applied))
		m["shard.duplicates"] += float64(s.Duplicates)
		m["shard.redirects"] += float64(s.Redirects)
		begins += float64(s.Txn.Begins)
		decisions += float64(s.Txn.Commits + s.Txn.Aborts)
		rounds += float64(s.Txn.GroupCommits)
		lockWaits += float64(s.Txn.LockWaits)
	}
	m["replication.applies_per_op"] = ratio(applied, ops)
	m["shard.imbalance"] = ratio(maxApplied*float64(len(res.Shards)), applied)
	m["txn.lock_waits_per_txn"] = ratio(lockWaits, begins)
	m["txn.decisions_per_round"] = ratio(decisions, rounds)
	var acked, batches, retries, aborted, begun float64
	for _, cl := range res.Clients {
		acked += float64(cl.Acked)
		batches += float64(cl.Batches)
		retries += float64(cl.Retries)
		m["session.stalls"] += float64(cl.Stalls)
	}
	for _, t := range res.TxnClients {
		retries += float64(t.Retries)
		aborted += float64(t.Aborted)
		begun += float64(t.Begun)
	}
	m["session.ops_per_batch"] = ratio(acked, batches)
	m["session.retries_per_op"] = ratio(retries, ops)
	m["txn.abort_ratio"] = ratio(aborted, begun)
	var delivered, suppressed float64
	for _, t := range res.PubSub {
		delivered += float64(t.Delivered)
		suppressed += float64(t.Suppressed)
		m["pubsub.deadline_miss"] += float64(t.DeadlineMiss)
		m["pubsub.replayed"] += float64(t.Replayed)
	}
	m["pubsub.suppressed_ratio"] = ratio(suppressed, delivered+suppressed)
	for _, l := range res.Loads {
		if l.Mode == "closed" {
			m["load.closed_p99_us"] = float64(l.Latency.P99) / 1e3
		}
	}
	// Mean dwell of an op per trace layer, weighted over the op classes'
	// all-shards rows (the aggregation is always on, whatever the
	// span-tree sample rate).
	var n float64
	dwell := map[string]vtime.Duration{}
	for _, l := range res.Latency {
		if l.Shard != -1 {
			continue
		}
		k := vtime.Duration(l.Count)
		n += float64(l.Count)
		dwell["queue"] += l.Queued * k
		dwell["batch"] += l.Batched * k
		dwell["wire"] += l.Wire * k
		dwell["replicate"] += l.Replicating * k
		dwell["lock"] += l.Locked * k
		dwell["other"] += l.Other * k
	}
	for layer, sum := range dwell {
		m["trace.vt_"+layer+"_us"] = ratio(float64(sum)/1e3, n)
	}
	for _, d := range countDefs {
		if _, ok := m[d.name]; !ok {
			m[d.name] = 0
		}
	}
	return m
}
