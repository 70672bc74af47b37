package cluster_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"hades/internal/cluster"
	"hades/internal/monitor"
	"hades/internal/txn"
	"hades/internal/vtime"
)

// transferEvery drives one two-key transfer per interval, rotating
// over the account list so both shards of a two-shard ring own part of
// every transaction.
func transferEvery(c *cluster.Cluster, cl *txn.Client, accounts []string, every vtime.Duration, from, until vtime.Time) {
	i := 0
	for t := from; t < until; t = t.Add(every) {
		src := accounts[i%len(accounts)]
		dst := accounts[(i+1)%len(accounts)]
		amount := int64(i + 1)
		i++
		c.At(t, func() { cl.Transfer(src, dst, amount) })
	}
}

var accounts = []string{"acct-a", "acct-b", "acct-c", "acct-d", "acct-e", "acct-f"}

// TestTxnHappyPath: a faultless run commits every transfer, the writes
// land atomically in both shards' histories, and the lock table
// drains.
func TestTxnHappyPath(t *testing.T) {
	c := cluster.New(cluster.Config{Seed: 101})
	c.AddNodes(5) // 2 shards × 2 replicas + txn client
	c.ConnectAll(100*us, 300*us)
	set := c.ShardsWith(2, 2, cluster.ShardConfig{})
	cl := set.TxnClientAt(4)
	transferEvery(c, cl, accounts, 4*ms, 0, vtime.Time(100*ms))
	res := c.Run(200 * ms)

	if cl.Stats.Begun == 0 || cl.Stats.Committed != cl.Stats.Begun {
		t.Fatalf("committed %d of %d begun (aborted=%d)", cl.Stats.Committed, cl.Stats.Begun, cl.Stats.Aborted)
	}
	if err := set.CheckTxns(); err != nil {
		t.Fatalf("atomicity check: %v", err)
	}
	for _, sr := range res.Shards {
		if sr.Txn.LocksHeld != 0 {
			t.Fatalf("%s still holds %d locks at end of run", sr.Name, sr.Txn.LocksHeld)
		}
	}
	// Both shards participated (accounts spread over the ring).
	for _, name := range []string{"shard0", "shard1"} {
		sr, ok := shardOf(res, name)
		if !ok || sr.Txn.Prepares == 0 {
			t.Fatalf("shard %s prepared nothing: %+v", name, sr.Txn)
		}
	}
	i := slices.IndexFunc(res.TxnClients, func(c cluster.TxnClientResult) bool { return c.Node == 4 })
	if i < 0 || res.TxnClients[i].Committed != cl.Stats.Committed {
		t.Fatalf("txn client result missing or wrong: %+v", res.TxnClients)
	}
}

// TestTxnReadsReturnCommittedValues: reads lock and return the last
// committed write of the key.
func TestTxnReadsReturnCommittedValues(t *testing.T) {
	c := cluster.New(cluster.Config{Seed: 103})
	c.AddNodes(5)
	c.ConnectAll(100*us, 300*us)
	set := c.ShardsWith(2, 2, cluster.ShardConfig{})
	cl := set.TxnClientAt(4)

	c.At(0, func() {
		tx := cl.Begin()
		cl.Write(tx, "acct-a", 77)
		cl.Commit(tx)
	})
	c.At(vtime.Time(20*ms), func() {
		tx := cl.Begin()
		tx.Read("acct-a")
		tx.Read("acct-never-written")
		cl.Write(tx, "acct-b", 5)
		cl.Commit(tx)
	})
	c.Run(100 * ms)

	if cl.Stats.Committed != 2 {
		t.Fatalf("committed %d of 2 (aborted=%d)", cl.Stats.Committed, cl.Stats.Aborted)
	}
	if got := cl.Done[1].Reads; got == nil || got["acct-a"] != 77 || got["acct-never-written"] != 0 {
		t.Fatalf("reads %v, want acct-a=77 and acct-never-written=0", got)
	}
	if err := set.CheckTxns(); err != nil {
		t.Fatalf("atomicity check: %v", err)
	}
}

// TestTxnLockConflictWaitsThenCommits: two clients hitting the same
// account serialize through the lock queue; both commit (the second
// waits, it does not abort) in a fault-free run.
func TestTxnLockConflictWaitsThenCommits(t *testing.T) {
	c := cluster.New(cluster.Config{Seed: 107})
	c.AddNodes(6) // 2 shards × 2 replicas + 2 txn clients
	c.ConnectAll(100*us, 300*us)
	set := c.ShardsWith(2, 2, cluster.ShardConfig{})
	cl1 := set.TxnClientAt(4)
	cl2 := set.TxnClientAt(5)
	// Same instant, same accounts: one of them must wait for the lock.
	c.At(vtime.Time(1*ms), func() { cl1.Transfer("acct-a", "acct-b", 10) })
	c.At(vtime.Time(1*ms), func() { cl2.Transfer("acct-b", "acct-a", 20) })
	res := c.Run(200 * ms)

	if cl1.Stats.Committed+cl2.Stats.Committed != 2 {
		t.Fatalf("commits %d+%d, want 2 (aborted %d+%d)", cl1.Stats.Committed, cl2.Stats.Committed,
			cl1.Stats.Aborted, cl2.Stats.Aborted)
	}
	waits := 0
	for _, sr := range res.Shards {
		waits += sr.Txn.LockWaits
	}
	if waits == 0 {
		t.Fatal("conflicting transfers produced no lock wait")
	}
	if err := set.CheckTxns(); err != nil {
		t.Fatalf("atomicity check: %v", err)
	}
}

// TestTxnDeadlineAbortReleasesLocks drives both deadline paths
// deterministically. A partition makes shard1's serving quorum
// unreachable from the client side WITHOUT moving its primary (nodes
// {3,4} keep the quorum, so no rescue failover happens on the client
// side). Then:
//
//   - T1 writes alpha (shard0) + bravo (shard1): shard0 locks and
//     votes YES, shard1 never answers, so T1 holds alpha until its
//     deadline — at which point the lock is released (never into the
//     fault window) and the abort resolves;
//   - T2 (short deadline) writes alpha only: it waits behind T1's lock
//     past its own deadline and votes NO (lock-wait abort).
//
// Nothing is torn, nothing leaks, and the lock tables drain.
func TestTxnDeadlineAbortReleasesLocks(t *testing.T) {
	c := cluster.New(cluster.Config{Seed: 109})
	c.AddNodes(8) // 2 shards × 3 replicas + 2 txn clients
	c.ConnectAll(100*us, 300*us)
	set := c.ShardsWith(2, 3, cluster.ShardConfig{})
	cl1 := set.TxnClientWith(txn.ClientParams{Node: 7, Deadline: 50 * ms})
	cl2 := set.TxnClientWith(txn.ClientParams{Node: 6, Deadline: 10 * ms})
	// Warm up cl2's transaction counter so its conflicting transaction
	// (t6.6) hashes onto the reachable coordinator shard0.
	for i := 0; i < 5; i++ {
		at := vtime.Time(vtime.Duration(1+4*i) * ms)
		c.At(at, func() { cl2.Transfer("hotel", "golf", 1) })
	}
	c.PartitionAt(vtime.Time(25*ms), []int{3, 4}, []int{0, 1, 2, 5, 6, 7})
	c.At(vtime.Time(26*ms), func() {
		tx := cl1.Begin() // t7.1 → coordinator shard0 (reachable)
		cl1.Write(tx, "alpha", 1)
		cl1.Write(tx, "bravo", 2) // shard1: unreachable quorum
		cl1.Commit(tx)
	})
	c.At(vtime.Time(30*ms), func() {
		tx := cl2.Begin() // t6.6 → coordinator shard0 (reachable)
		cl2.Write(tx, "alpha", 3)
		cl2.Commit(tx)
	})
	c.HealAt(vtime.Time(150 * ms))
	res := c.Run(300 * ms)

	if cl1.Stats.Aborted != 1 || cl1.Stats.Committed != 0 {
		t.Fatalf("cl1 (unreachable shard in write set): %+v", cl1.Stats)
	}
	if cl2.Stats.Aborted != 1 || cl2.Stats.Committed != 5 {
		t.Fatalf("cl2 (lock wait past deadline): %+v", cl2.Stats)
	}
	s0, _ := shardOf(res, "shard0")
	if s0.Txn.LockWaits == 0 {
		t.Fatalf("no lock wait recorded on shard0: %+v", s0.Txn)
	}
	if s0.Txn.DeadlineReleases == 0 {
		t.Fatalf("T1's alpha lock was not released at the deadline: %+v", s0.Txn)
	}
	if err := set.CheckTxns(); err != nil {
		t.Fatalf("atomicity check: %v", err)
	}
	for _, sr := range res.Shards {
		if sr.Txn.LocksHeld != 0 {
			t.Fatalf("%s still holds %d locks", sr.Name, sr.Txn.LocksHeld)
		}
	}
}

// TestTxnSurvivesCoordinatorCrash: crashing a shard primary mid-run
// (which is both a participant primary and the coordinator of the
// transactions hashed onto it) neither tears a committed transaction
// nor leaks a partial write; transactions decided during the blackout
// abort on their deadlines and later ones commit against the promoted
// primary.
func TestTxnSurvivesCoordinatorCrash(t *testing.T) {
	c := cluster.New(cluster.Config{Seed: 113})
	c.AddNodes(7) // 2 shards × 3 replicas + txn client
	c.ConnectAll(100*us, 300*us)
	set := c.ShardsWith(2, 3, cluster.ShardConfig{})
	cl := set.TxnClientAt(6)
	transferEvery(c, cl, accounts, 3*ms, 0, vtime.Time(200*ms))
	c.Crash(0, vtime.Time(50*ms), 0) // shard0's primary, no recovery
	c.Run(400 * ms)

	if cl.Stats.Committed == 0 {
		t.Fatalf("nothing committed across the crash: %+v", cl.Stats)
	}
	if cl.Stats.Committed+cl.Stats.Aborted != cl.Stats.Begun {
		t.Fatalf("undecided transactions at end of run: %+v", cl.Stats)
	}
	if err := set.CheckTxns(); err != nil {
		t.Fatalf("atomicity check: %v", err)
	}
	if err := set.Check(); err != nil {
		t.Fatalf("data-plane check: %v", err)
	}
}

// TestTxnRedirectsCountedOnce: a coordinator-primary crash redirects
// in-flight submissions (the router republishes the promoted primary),
// and the client counts each redirect once — as many as its session
// calls recorded.
func TestTxnRedirectsCountedOnce(t *testing.T) {
	c := cluster.New(cluster.Config{Seed: 113})
	c.Log().Keep(monitor.KindRedirect)
	c.AddNodes(7) // 2 shards × 3 replicas + txn client
	c.ConnectAll(100*us, 300*us)
	set := c.ShardsWith(2, 3, cluster.ShardConfig{})
	cl := set.TxnClientAt(6)
	transferEvery(c, cl, accounts, 3*ms, 0, vtime.Time(200*ms))
	c.Crash(0, vtime.Time(50*ms), 0) // shard0's primary, no recovery
	c.Run(400 * ms)

	recorded := 0
	for _, e := range c.Log().ByKind(monitor.KindRedirect) {
		if e.Node == cl.Node() {
			recorded++
		}
	}
	if recorded == 0 {
		t.Fatal("the crash redirected no in-flight submission")
	}
	if cl.Stats.Redirects != recorded {
		t.Fatalf("client counted %d redirects, its calls recorded %d", cl.Stats.Redirects, recorded)
	}
}

// TestTxnPartitionWindowAborts: a partition isolating a shard primary
// makes its prepares unreachable; transactions with that shard in
// their write set abort on their deadlines during the window (locks
// released, nothing torn) and commit again after the heal.
func TestTxnPartitionWindowAborts(t *testing.T) {
	c := cluster.New(cluster.Config{Seed: 127})
	c.AddNodes(7)
	c.ConnectAll(100*us, 300*us)
	set := c.ShardsWith(2, 3, cluster.ShardConfig{})
	cl := set.TxnClientAt(6)
	transferEvery(c, cl, accounts, 3*ms, 0, vtime.Time(300*ms))
	// Shard 1's serving quorum {3,4} is segmented away from the client:
	// its primary survives WITH quorum on the far side, so no failover
	// rescues the client-side traffic — transactions touching shard1
	// can only abort on their deadlines until the heal.
	c.PartitionAt(vtime.Time(80*ms), []int{3, 4}, []int{0, 1, 2, 5, 6})
	c.HealAt(vtime.Time(180 * ms))
	c.Run(500 * ms)

	if cl.Stats.Committed == 0 || cl.Stats.Aborted == 0 {
		t.Fatalf("want both commits and aborts across the window: %+v", cl.Stats)
	}
	if cl.Stats.Committed+cl.Stats.Aborted != cl.Stats.Begun {
		t.Fatalf("undecided transactions at end of run: %+v", cl.Stats)
	}
	if cl.Stats.DeadlineAborts == 0 {
		t.Fatalf("partition window produced no deadline aborts: %+v", cl.Stats)
	}
	if err := set.CheckTxns(); err != nil {
		t.Fatalf("atomicity check: %v", err)
	}
}

// TestTxnDeterministic: the transaction layer obeys the cluster
// determinism contract — same description, same seed, same outcome
// history.
func TestTxnDeterministic(t *testing.T) {
	run := func() string {
		c := cluster.New(cluster.Config{Seed: 131})
		c.AddNodes(7)
		c.ConnectAll(100*us, 300*us)
		set := c.ShardsWith(2, 3, cluster.ShardConfig{})
		cl := set.TxnClientAt(6)
		transferEvery(c, cl, accounts, 3*ms, 0, vtime.Time(150*ms))
		c.Crash(0, vtime.Time(40*ms), vtime.Time(200*ms))
		c.PartitionAt(vtime.Time(100*ms), []int{3}, []int{0, 1, 2, 4, 5, 6})
		c.HealAt(vtime.Time(180 * ms))
		c.Run(400 * ms)
		var b strings.Builder
		for _, r := range cl.Done {
			fmt.Fprintf(&b, "%s=%s@%s;", r.ID, r.Status, r.DecidedAt)
		}
		return b.String()
	}
	h1, h2 := run(), run()
	if h1 == "" {
		t.Fatal("no decided transactions recorded")
	}
	if h1 != h2 {
		t.Fatalf("same seed, different outcome histories:\n%s\n%s", h1, h2)
	}
}

// TestTxnClientCollisionsRejected: transaction clients may not share a
// node with replicas or other clients of the same set.
func TestTxnClientCollisionsRejected(t *testing.T) {
	c := cluster.New(cluster.Config{Seed: 1})
	c.AddNodes(6)
	c.ConnectAll(100*us, 300*us)
	set := c.ShardsWith(2, 2, cluster.ShardConfig{})
	set.ClientAt(4)
	for name, node := range map[string]int{"replica node": 0, "request-client node": 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("txn client on %s accepted", name)
				}
			}()
			set.TxnClientAt(node)
		}()
	}
	// And the other direction: a request client on a txn client's node.
	set.TxnClientAt(5)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("request client on txn-client node accepted")
			}
		}()
		set.ClientAt(5)
	}()
}

// TestTxnClientQueueDeadline: a transaction queued behind its client's
// in-flight one aborts at its own deadline without ever reaching a
// coordinator. The client is cut off from every shard group, so its
// first transaction's submission retries and parks; the second waits
// in the client queue until its deadline and aborts there, on that
// instant. After the heal only the first reaches a coordinator.
func TestTxnClientQueueDeadline(t *testing.T) {
	c := cluster.New(cluster.Config{Seed: 137})
	c.AddNodes(7) // 2 shards × 3 replicas + txn client
	c.ConnectAll(100*us, 300*us)
	set := c.ShardsWith(2, 3, cluster.ShardConfig{})
	cl := set.TxnClientAt(6)
	c.PartitionAt(vtime.Time(2*ms), []int{6}, []int{0, 1, 2, 3, 4, 5})
	c.HealAt(vtime.Time(80 * ms))
	c.At(vtime.Time(5*ms), func() {
		cl.Transfer("acct-a", "acct-b", 1)
		cl.Transfer("acct-c", "acct-d", 2)
	})
	begins := func(res cluster.Result) int {
		n := 0
		for _, sr := range res.Shards {
			n += sr.Txn.Begins
		}
		return n
	}

	deadline := vtime.Time(5*ms + txn.DefaultDeadline)
	res := c.Run(deadline.Sub(0) + 1*ms)
	if cl.Stats.Aborted != 1 || cl.Stats.DeadlineAborts != 1 || len(cl.Done) != 1 {
		t.Fatalf("at the second's deadline: %+v, %d records", cl.Stats, len(cl.Done))
	}
	rec := cl.Done[0]
	if rec.ID != (txn.ID{Client: 6, Num: 2}) || rec.Status != txn.StatusAborted || rec.DecidedAt != deadline {
		t.Fatalf("record %s %s at %s, want t6.2 aborted at %s", rec.ID, rec.Status, rec.DecidedAt, deadline)
	}
	if n := begins(res); n != 0 {
		t.Fatalf("coordinators admitted %d transactions through the partition", n)
	}

	res = c.Run(200 * ms)
	if cl.Stats.Aborted != 2 || cl.Stats.DeadlineAborts != 2 {
		t.Fatalf("after the heal: %+v", cl.Stats)
	}
	if n := begins(res); n != 1 {
		t.Fatalf("coordinators admitted %d transactions, want the first only", n)
	}
	if cl.Done[1].ID.Num != 1 {
		t.Fatalf("records %+v", cl.Done)
	}
	if err := set.CheckTxns(); err != nil {
		t.Fatalf("atomicity check: %v", err)
	}
}
