package txn_test

import (
	"testing"

	"hades/internal/cluster"
	"hades/internal/monitor"
	"hades/internal/txn"
	"hades/internal/vtime"
)

// refusedAttempt runs one transfer on a single 3-replica shard (nodes
// 0-2, primary n0) whose live submission attempt is aimed again at
// node, after the partition split (if any) has had time to show. The
// transfer must commit once and be audited clean.
func refusedAttempt(t *testing.T, node int, split ...[]int) (*cluster.Cluster, *txn.Client) {
	t.Helper()
	const ms = vtime.Millisecond
	c := cluster.New(cluster.Config{Seed: 19})
	c.AddNodes(4) // one shard × 3 replicas + the client
	c.ConnectAll(100*vtime.Microsecond, 300*vtime.Microsecond)
	set := c.ShardsWith(1, 3, cluster.ShardConfig{})
	cl := set.TxnClientAt(3)
	if split != nil {
		c.PartitionAt(vtime.Time(20*ms), split...)
		c.HealAt(vtime.Time(200 * ms))
	}
	c.At(vtime.Time(100*ms), func() { cl.Transfer("acct-a", "acct-b", 1) })
	aimed := false
	c.At(vtime.Time(100*ms+50*vtime.Microsecond), func() { aimed = cl.AimLiveAt(node) })
	c.Run(400 * ms)
	if !aimed {
		t.Fatal("no submission in flight to aim")
	}
	if cl.Stats.Begun != 1 || cl.Stats.Committed != 1 {
		t.Fatalf("committed %d of %d transfers", cl.Stats.Committed, cl.Stats.Begun)
	}
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
	return c, cl
}

// TestTxnServerRedirectFollowed: a submission attempt that lands on a
// backup is redirected to the primary; the client follows it once and
// the transfer commits once.
func TestTxnServerRedirectFollowed(t *testing.T) {
	c, cl := refusedAttempt(t, 1)
	if cl.Stats.Redirects != 1 || cl.Stats.Blocked != 0 {
		t.Fatalf("%d redirects, %d blocked, want 1 and 0", cl.Stats.Redirects, cl.Stats.Blocked)
	}
	var followed []string
	for _, e := range c.Log().ByKind(monitor.KindRedirect) {
		if e.Node == cl.Node() {
			followed = append(followed, e.Detail)
		}
	}
	if len(followed) != 1 || followed[0] != "server: n1 -> n0" {
		t.Fatalf("the client followed %q, want one server redirect n1 -> n0", followed)
	}
}

// TestTxnBlockedAttemptRetried: a submission attempt that lands on a
// replica cut off from its quorum is refused as blocked; the client
// counts the refusal, retries, and the transfer commits once.
func TestTxnBlockedAttemptRetried(t *testing.T) {
	_, cl := refusedAttempt(t, 2, []int{2}, []int{0, 1})
	if cl.Stats.Blocked != 1 || cl.Stats.Redirects != 0 {
		t.Fatalf("%d blocked, %d redirects, want 1 and 0", cl.Stats.Blocked, cl.Stats.Redirects)
	}
}
