package txn_test

import (
	"testing"

	"hades/internal/cluster"
	"hades/internal/session"
	"hades/internal/vtime"
)

// TestFaultFreeTransfersLeaveNoLiveCall: every session call of the
// plane ends where its answer lands — a submission at its outcome, a
// PREPARE loop at its vote, a decision loop at its ack. Within one
// timeout of the last decision of a fault-free run no call is live; a
// loop its owner forgot to finish would retry, park and re-probe for
// ever.
func TestFaultFreeTransfersLeaveNoLiveCall(t *testing.T) {
	c := cluster.New(cluster.Config{Seed: 11})
	c.AddNodes(7) // 2 shards × 3 replicas + the client
	set := c.ShardsWith(2, 3, cluster.ShardConfig{})
	cl := set.TxnClientAt(6)
	keys := []string{"acct-a", "acct-b", "acct-c", "acct-d", "acct-e", "acct-f"}
	const n = 24
	for i := 0; i < n; i++ {
		c.At(vtime.Time(20*vtime.Millisecond+vtime.Duration(i)*vtime.Millisecond), func() {
			cl.Transfer(keys[i%len(keys)], keys[(i+1)%len(keys)], 1)
		})
	}
	for len(cl.Done) < n && c.Engine().Now() < vtime.Time(500*vtime.Millisecond) {
		c.Run(vtime.Millisecond)
	}
	if cl.Stats.Committed != n {
		t.Fatalf("committed %d of %d transfers (aborted %d)", cl.Stats.Committed, n, cl.Stats.Aborted)
	}
	c.Run(session.DefaultTimeout)
	if got := cl.LiveCalls(); got != 0 {
		t.Fatalf("%d session calls live one timeout after the last decision, want 0", got)
	}
	if err := set.CheckTxns(); err != nil {
		t.Fatal(err)
	}
}
