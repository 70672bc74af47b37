package cluster_test

import (
	"fmt"
	"strings"
	"testing"

	"hades/internal/cluster"
	"hades/internal/session"
	"hades/internal/shard"
	"hades/internal/txn"
	"hades/internal/vtime"
)

// burstEvery submits one op on every key at each interval tick — the
// high-fanout shape that gives the batcher something to coalesce.
func burstEvery(c *cluster.Cluster, cl *shard.Client, every vtime.Duration, from, until vtime.Time) {
	i := 0
	for t := from; t < until; t = t.Add(every) {
		for _, k := range shardKeys {
			key := k
			cmd := int64(i + 1)
			i++
			c.At(t, func() { cl.Submit(key, cmd) })
		}
	}
}

// TestBatchedExactlyOnceAcrossPrimaryCrash pins exactly-once under
// batching: a batch retried after a primary crash is answered from the
// replicated Seen table op-by-op at the promoted replica — every op
// acked, none applied twice, even though whole batches were resent.
func TestBatchedExactlyOnceAcrossPrimaryCrash(t *testing.T) {
	c := cluster.New(cluster.Config{Seed: 37})
	c.AddNodes(4) // 1 shard × 3 replicas + client
	c.ConnectAll(100*us, 300*us)
	set := c.ShardsWith(1, 3, cluster.ShardConfig{
		Session: session.Params{MaxBatch: 8, FlushInterval: 500 * us, PipelineDepth: 2},
	})
	cl := set.ClientAt(3)
	burstEvery(c, cl, ms, 0, vtime.Time(150*ms))
	// Two ways for an applied batch to be resent wholesale: a primary
	// crash mid-run (retries redirect to the promoted replica, which
	// applied the batch through replication) and a deterministic
	// omission dropping every 20th ack (the batch applied, the client
	// never heard). Both must be answered from the replicated Seen
	// table op-by-op, never re-applied.
	c.Crash(0, vtime.Time(50*ms), vtime.Time(250*ms))
	c.DropEvery(20, "shard.shard.resp")
	res := c.Run(400 * ms)

	if cl.Stats.Acked != cl.Stats.Submitted {
		t.Fatalf("acked %d of %d across the failover (%+v)", cl.Stats.Acked, cl.Stats.Submitted, cl.Stats)
	}
	bs := cl.BatchStats()
	if bs.MaxBatchOps < 2 {
		t.Fatalf("workload never batched (maxOps=%d) — the regression this test pins needs multi-op batches", bs.MaxBatchOps)
	}
	if int(bs.Ops) != cl.Stats.Submitted {
		t.Fatalf("batcher carried %d ops, client submitted %d", bs.Ops, cl.Stats.Submitted)
	}
	if res.Shards[0].Duplicates == 0 {
		t.Fatalf("no retried batch was answered from the replicated dedup cache (retries=%d) — the crash window never exercised the Seen table", cl.Stats.Retries)
	}
	if err := set.Check(); err != nil {
		t.Fatalf("consistency check: %v", err)
	}
}

// TestGroupCommitCoalescesBurstDecisions pins the group-commit policy
// at the coordinators: a synchronized burst of conflict-free transfers
// produces decisions inside each other's replication window, so at
// least one replicated round carries more than one COMMIT record
// (GroupCommits < decisions) — while every transfer still commits
// atomically and the decision log stays idempotent.
func TestGroupCommitCoalescesBurstDecisions(t *testing.T) {
	c := cluster.New(cluster.Config{Seed: 43})
	c.AddNodes(12) // 2 shards × 2 replicas + 8 txn clients
	c.ConnectAll(100*us, 300*us)
	set := c.ShardsWith(2, 2, cluster.ShardConfig{
		GroupCommit: session.Params{MaxBatch: 8, FlushInterval: 500 * us},
	})
	clients := make([]*txn.Client, 8)
	for i := range clients {
		cl := set.TxnClientAt(4 + i)
		clients[i] = cl
		// Disjoint account pairs: no lock conflicts, so the burst's
		// decisions land as close together as the votes allow.
		src := fmt.Sprintf("acct-%02d", 2*i)
		dst := fmt.Sprintf("acct-%02d", 2*i+1)
		c.At(0, func() { cl.Transfer(src, dst, 1) })
	}
	res := c.Run(50 * ms)

	for _, cl := range clients {
		if cl.Stats.Committed != 1 {
			t.Fatalf("client n%d committed %d of 1 (aborted=%d)", cl.Node(), cl.Stats.Committed, cl.Stats.Aborted)
		}
	}
	decisions, rounds, maxBatch := 0, 0, 0
	for _, sr := range res.Shards {
		decisions += sr.Txn.Commits + sr.Txn.Aborts
		rounds += sr.Txn.GroupCommits
		maxBatch = max(maxBatch, sr.Txn.MaxDecisionBatch)
	}
	if decisions != 8 {
		t.Fatalf("decided %d transactions, want 8", decisions)
	}
	if maxBatch < 2 || rounds >= decisions {
		t.Fatalf("burst never group-committed: %d decisions in %d rounds (maxBatch=%d)", decisions, rounds, maxBatch)
	}
	if err := set.CheckTxns(); err != nil {
		t.Fatalf("atomicity check: %v", err)
	}
}

// TestBatchedPipelinedDeterministic pins the determinism contract with
// batching AND pipelining on (K > 1): same description, same seed —
// identical ack history and identical Result rendering, under combined
// crash and partition faults.
func TestBatchedPipelinedDeterministic(t *testing.T) {
	run := func() (string, string) {
		c := cluster.New(cluster.Config{Seed: 41})
		c.AddNodes(7)
		c.ConnectAll(100*us, 300*us)
		set := c.ShardsWith(2, 3, cluster.ShardConfig{
			Session: session.Params{MaxBatch: 4, FlushInterval: 500 * us, PipelineDepth: 3},
		})
		cl := set.ClientAt(6)
		burstEvery(c, cl, 2*ms, 0, vtime.Time(150*ms))
		c.Crash(0, vtime.Time(40*ms), vtime.Time(200*ms))
		c.PartitionAt(vtime.Time(100*ms), []int{3}, []int{0, 1, 2, 4, 5, 6})
		c.HealAt(vtime.Time(180 * ms))
		res := c.Run(300 * ms)
		var b strings.Builder
		for _, a := range cl.Acks {
			fmt.Fprintf(&b, "%s#%d=%d@%s;", a.Key, a.Seq, a.Result, a.At)
		}
		return b.String(), res.String()
	}
	h1, r1 := run()
	h2, r2 := run()
	if h1 == "" {
		t.Fatal("no acks recorded")
	}
	if h1 != h2 {
		t.Fatalf("same seed, different ack histories with pipelining on:\n%s\n%s", h1, h2)
	}
	if r1 != r2 {
		t.Fatalf("same seed, different Result stats with pipelining on:\n%s\n%s", r1, r2)
	}
}
