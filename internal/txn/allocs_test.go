//go:build !race

// The allocation gates live apart from the other tests because the race
// detector instruments allocation: under -race they would measure the
// detector, so that job does not build them (CI runs them by name in
// build-and-test, step "engine core and record door allocate nothing").

package txn_test

import (
	"testing"

	"hades/internal/cluster"
	"hades/internal/monitor"
	"hades/internal/txn"
	"hades/internal/vtime"
)

// TestAllocsTransfer: a warm two-key transfer from Transfer to its
// decided record, across two 3-replica semi-active shards with no
// faults, on a full head-mode log with tracing and metrics off, costs
// what the transaction owns and nothing per deadline timer, span name,
// refused record, session call or loopback hop. Whichever shard the id
// hashes onto coordinates, it is one of the two participants, so every
// transfer takes the same path. At the client: the Txn and its ops (2);
// the boxed submission (1). At the coordinator: the record, its parts
// and their ops (3); per PREPARE and decision send a boxed envelope
// (4); the decision-log round, its items and the batcher's slice (3)
// and the replicated round (2); the boxed outcome (1). At each
// participant: the prepare and its lock set (2); the reads map and its
// entries (2), which the coordinator adopts and ships in its reply; the
// boxed vote (1); the write's pending op (1), its
// replicated round (2) and the boxed ack (1). Every session call (the
// submission, a PREPARE and a decision loop per participant) takes a
// recycled slot and fires its owning record, which renders its label
// only for a record the log keeps; the write's first apply fires its
// prepare; the local participant's four loopback hops (prepare, vote,
// decision, ack) ride recycled netsim records.
func TestAllocsTransfer(t *testing.T) {
	c := cluster.New(cluster.Config{Seed: 7, LogLimit: 1,
		Metrics: &cluster.MetricsParams{Disabled: true}, Trace: &cluster.TraceParams{Disabled: true}})
	c.AddNodes(7) // 2 shards × 3 replicas + the client
	set := c.ShardsWith(2, 3, cluster.ShardConfig{})
	cl := set.TxnClientAt(6)
	eng := c.Engine()
	eng.Recordf(monitor.KindActivation, 0, "first", "") // the window is full
	c.Run(20 * vtime.Millisecond)                       // membership installs its first view
	from, to := splitPair(t, c, cl)
	cycle := func() {
		cl.Transfer(from, to, 1)
		// Past the deadline, so its three timers fire inside the cycle.
		eng.Run(eng.Now().Add(txn.DefaultDeadline + 5*vtime.Millisecond))
	}
	for j := 0; j < 100; j++ {
		cycle() // warm-up: maps, logs, call lists and free lists reach size
	}
	const want = 34 // 38 while the coordinator cloned the reads twice, 102 while timers, loop wrappers and labels each allocated, 60 while each session call had a label, a Call and a Send closure
	if got := testing.AllocsPerRun(200, cycle); got != want {
		t.Errorf("transfer: %v allocs per run, want %d", got, want)
	}
	if cl.Stats.Committed != cl.Stats.Begun || cl.Stats.Retries != 0 {
		t.Fatalf("committed %d of %d transfers, %d retries", cl.Stats.Committed, cl.Stats.Begun, cl.Stats.Retries)
	}
	if err := set.CheckTxns(); err != nil {
		t.Fatal(err)
	}
}

// splitPair returns two accounts owned by different shards, read off
// the records of probe transfers.
func splitPair(t *testing.T, c *cluster.Cluster, cl *txn.Client) (string, string) {
	t.Helper()
	keys := []string{"acct-a", "acct-b", "acct-c", "acct-d", "acct-e", "acct-f"}
	for _, k := range keys[1:] {
		cl.Transfer(keys[0], k, 1)
		c.Engine().Run(c.Engine().Now().Add(txn.DefaultDeadline + 5*vtime.Millisecond))
		rec := cl.Done[len(cl.Done)-1]
		if rec.Status != txn.StatusCommitted {
			t.Fatalf("probe transfer %s: %s", rec.ID, rec.Status)
		}
		if rec.Ops[0].Shard != rec.Ops[1].Shard {
			return keys[0], k
		}
	}
	t.Fatal("every probe account shares a shard")
	return "", ""
}
