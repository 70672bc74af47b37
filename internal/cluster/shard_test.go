package cluster_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"hades/internal/cluster"
	"hades/internal/netsim"
	"hades/internal/shard"
	"hades/internal/vtime"
)

// shardKeys spreads a keyed workload over enough distinct keys that
// both shards of a two-shard ring own part of it.
var shardKeys = []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel"}

// shardOf and groupOf look a shard's or a membership group's record up
// by name.
func shardOf(res cluster.Result, name string) (cluster.ShardResult, bool) {
	i := slices.IndexFunc(res.Shards, func(s cluster.ShardResult) bool { return s.Name == name })
	if i < 0 {
		return cluster.ShardResult{}, false
	}
	return res.Shards[i], true
}

func groupOf(res cluster.Result, name string) (cluster.GroupResult, bool) {
	i := slices.IndexFunc(res.Groups, func(g cluster.GroupResult) bool { return g.Name == name })
	if i < 0 {
		return cluster.GroupResult{}, false
	}
	return res.Groups[i], true
}

// submitEvery drives one request per interval, round-robin over keys.
func submitEvery(c *cluster.Cluster, cl *shard.Client, every vtime.Duration, from, until vtime.Time) {
	i := 0
	for t := from; t < until; t = t.Add(every) {
		k := shardKeys[i%len(shardKeys)]
		cmd := int64(i + 1)
		i++
		c.At(t, func() { cl.Submit(k, cmd) })
	}
}

// TestShardsHappyPath: a two-shard data plane with no faults serves
// every request at the first primary, spread over both shards, with
// the exactly-once/per-key-order contract intact.
func TestShardsHappyPath(t *testing.T) {
	c := cluster.New(cluster.Config{Seed: 11})
	c.AddNodes(5) // 2 shards × 2 replicas + client
	c.ConnectAll(100*us, 300*us)
	set := c.ShardsWith(2, 2, cluster.ShardConfig{})
	cl := set.ClientAt(4)
	submitEvery(c, cl, 2*ms, 0, vtime.Time(100*ms))
	res := c.Run(200 * ms)

	if cl.Stats.Submitted == 0 || cl.Stats.Acked != cl.Stats.Submitted {
		t.Fatalf("acked %d of %d submitted", cl.Stats.Acked, cl.Stats.Submitted)
	}
	if cl.Stats.Retries != 0 || cl.Stats.Queued != 0 {
		t.Fatalf("faultless run needed retries=%d queued=%d", cl.Stats.Retries, cl.Stats.Queued)
	}
	for _, name := range []string{"shard0", "shard1"} {
		sr, ok := shardOf(res, name)
		if !ok || sr.Requests == 0 {
			t.Fatalf("shard %s got no requests (keys all hashed to one shard?): %+v", name, res.Shards)
		}
	}
	if err := set.Check(); err != nil {
		t.Fatalf("consistency check: %v", err)
	}
}

// TestShardsCrashFailover: crashing a shard's primary mid-run moves
// ownership via the agreed view; the router republishes, in-flight and
// retried requests redirect to the promoted replica, and every request
// is acked and applied exactly once (retries answered from the
// replicated dedup cache, not re-applied).
func TestShardsCrashFailover(t *testing.T) {
	c := cluster.New(cluster.Config{Seed: 13})
	c.AddNodes(7) // 2 shards × 3 replicas + client
	c.ConnectAll(100*us, 300*us)
	set := c.ShardsWith(2, 3, cluster.ShardConfig{})
	cl := set.ClientAt(6)
	submitEvery(c, cl, 2*ms, 0, vtime.Time(200*ms))
	c.Crash(0, vtime.Time(50*ms), 0) // shard0's initial primary, no recovery
	res := c.Run(300 * ms)

	s0, _ := shardOf(res, "shard0")
	if s0.Primary == 0 {
		t.Fatal("shard0 primary still the crashed node")
	}
	gr, _ := groupOf(res, "shard0")
	if gr.Failovers != 1 {
		t.Fatalf("failovers %d, want 1", gr.Failovers)
	}
	if cl.Stats.Acked != cl.Stats.Submitted {
		t.Fatalf("acked %d of %d across the failover (retries=%d redirects=%d queued=%d)",
			cl.Stats.Acked, cl.Stats.Submitted, cl.Stats.Retries, cl.Stats.Redirects, cl.Stats.Queued)
	}
	if cl.Stats.Retries == 0 && cl.Stats.Redirects == 0 {
		t.Fatal("failover window produced neither retries nor redirects")
	}
	if err := set.Check(); err != nil {
		t.Fatalf("consistency check: %v", err)
	}
}

// TestShardsMinorityClientQueuesAndResubmits is the partition-window
// contract: a client cut off with a minority follower cannot reach the
// quorum-side primary, so its requests time out, park under the queue
// policy, and are resubmitted after the heal/merge — not lost, and
// applied exactly once.
func TestShardsMinorityClientQueuesAndResubmits(t *testing.T) {
	c := cluster.New(cluster.Config{Seed: 17})
	c.AddNodes(4) // 1 shard × 3 replicas + client
	c.ConnectAll(100*us, 300*us)
	set := c.ShardsWith(1, 3, cluster.ShardConfig{})
	cl := set.ClientAt(3)
	submitEvery(c, cl, 2*ms, vtime.Time(10*ms), vtime.Time(250*ms))
	// The client is segmented with follower 2; the primary (0) and the
	// quorum stay on the other side.
	c.PartitionAt(vtime.Time(20*ms), []int{2, 3}, []int{0, 1})
	c.HealAt(vtime.Time(150 * ms))
	res := c.Run(400 * ms)

	if cl.Stats.Queued == 0 {
		t.Fatalf("no requests parked during the split window: %+v", cl.Stats)
	}
	if cl.Stats.Resubmitted == 0 {
		t.Fatalf("parked requests never resubmitted after the merge: %+v", cl.Stats)
	}
	if cl.Stats.Acked != cl.Stats.Submitted {
		t.Fatalf("acked %d of %d — split-window requests were lost (%+v)",
			cl.Stats.Acked, cl.Stats.Submitted, cl.Stats)
	}
	gr, _ := groupOf(res, "shard0")
	if gr.Merges != 1 {
		t.Fatalf("merges %d, want 1", gr.Merges)
	}
	if err := set.Check(); err != nil {
		t.Fatalf("consistency check: %v", err)
	}
}

// TestShardsFailFastPolicy: the fail-fast policy abandons requests
// that exhaust their retries inside the split window instead of
// parking them.
func TestShardsFailFastPolicy(t *testing.T) {
	c := cluster.New(cluster.Config{Seed: 19})
	c.AddNodes(4)
	c.ConnectAll(100*us, 300*us)
	set := c.ShardsWith(1, 3, cluster.ShardConfig{})
	cl := set.ClientWith(shard.ClientParams{Node: 3, Policy: shard.FailFast})
	submitEvery(c, cl, 2*ms, vtime.Time(10*ms), vtime.Time(100*ms))
	c.PartitionAt(vtime.Time(20*ms), []int{2, 3}, []int{0, 1})
	c.HealAt(vtime.Time(150 * ms))
	c.Run(400 * ms)

	if cl.Stats.FailedFast == 0 {
		t.Fatalf("fail-fast policy abandoned nothing: %+v", cl.Stats)
	}
	if cl.Stats.Queued != 0 || cl.Stats.Resubmitted != 0 {
		t.Fatalf("fail-fast policy parked requests: %+v", cl.Stats)
	}
	if cl.Stats.Acked+cl.Stats.FailedFast != cl.Stats.Submitted {
		t.Fatalf("acked %d + failed %d != submitted %d", cl.Stats.Acked, cl.Stats.FailedFast, cl.Stats.Submitted)
	}
	if err := set.Check(); err != nil {
		t.Fatalf("consistency check (acked requests only): %v", err)
	}
}

// TestShardsStaleViewRejection pins the fencing caveat: a client
// segmented WITH the ex-primary keeps being served until the detector
// reveals the quorum loss — those acknowledged writes are overwritten
// by the authoritative majority at the merge (the documented
// lease-free window) — after which the stale server rejects with a
// blocked (stale-view) response instead of acking doomed writes.
func TestShardsStaleViewRejection(t *testing.T) {
	c := cluster.New(cluster.Config{Seed: 23})
	c.AddNodes(4)
	c.ConnectAll(100*us, 300*us)
	set := c.ShardsWith(1, 3, cluster.ShardConfig{})
	cl := set.ClientAt(3)
	submitEvery(c, cl, 2*ms, 0, vtime.Time(250*ms))
	// The client is segmented with the PRIMARY (0); the majority {1,2}
	// promotes node 1 on its side.
	c.PartitionAt(vtime.Time(20*ms), []int{0, 3}, []int{1, 2})
	c.HealAt(vtime.Time(150 * ms))
	res := c.Run(400 * ms)

	if cl.Stats.Blocked == 0 {
		t.Fatalf("stale ex-primary never rejected with a blocked response: %+v", cl.Stats)
	}
	gr, _ := groupOf(res, "shard0")
	if gr.Failovers != 1 {
		t.Fatalf("majority side failovers %d, want 1", gr.Failovers)
	}
	// The detection window admits doomed acks — Check reports exactly
	// the acknowledged-write-lost violation the fencing caveat allows.
	err := set.Check()
	if err == nil {
		t.Fatal("expected the lease-free window to lose acknowledged writes; Check passed — update the caveat docs")
	}
	if !strings.Contains(err.Error(), "lost") {
		t.Fatalf("unexpected violation: %v", err)
	}
}

// TestShardsDeterministic: the sharded data plane obeys the cluster
// determinism contract — same description, same seed, same ack
// history.
func TestShardsDeterministic(t *testing.T) {
	run := func() string {
		c := cluster.New(cluster.Config{Seed: 29})
		c.AddNodes(7)
		c.ConnectAll(100*us, 300*us)
		set := c.ShardsWith(2, 3, cluster.ShardConfig{})
		cl := set.ClientAt(6)
		submitEvery(c, cl, 2*ms, 0, vtime.Time(150*ms))
		c.Crash(0, vtime.Time(40*ms), vtime.Time(200*ms))
		c.PartitionAt(vtime.Time(100*ms), []int{3}, []int{0, 1, 2, 4, 5, 6})
		c.HealAt(vtime.Time(180 * ms))
		c.Run(300 * ms)
		var b strings.Builder
		for _, a := range cl.Acks {
			fmt.Fprintf(&b, "%s#%d=%d@%s;", a.Key, a.Seq, a.Result, a.At)
		}
		return b.String()
	}
	h1, h2 := run(), run()
	if h1 == "" {
		t.Fatal("no acks recorded")
	}
	if h1 != h2 {
		t.Fatalf("same seed, different ack histories:\n%s\n%s", h1, h2)
	}
}

// TestTwoShardSetsCoexist: two data planes on one cluster need
// distinct names (same-name sets would collide on group and response
// ports — rejected loudly); with distinct names their clients work
// independently, even from the same node.
func TestTwoShardSetsCoexist(t *testing.T) {
	c := cluster.New(cluster.Config{Seed: 31})
	c.AddNodes(9) // 2×2 replicas per set + shared client node 8
	c.ConnectAll(100*us, 300*us)
	kv := c.ShardsWith(2, 2, cluster.ShardConfig{Name: "kv"})
	idx := c.ShardsWith(0, 0, cluster.ShardConfig{Name: "idx", Groups: [][]int{{4, 5}, {6, 7}}})

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("duplicate set name accepted")
			}
		}()
		c.ShardsWith(2, 2, cluster.ShardConfig{Name: "kv"})
	}()

	ck := kv.ClientAt(8)
	ci := idx.ClientAt(8) // same node, distinct response ports
	submitEvery(c, ck, 2*ms, 0, vtime.Time(60*ms))
	submitEvery(c, ci, 2*ms, vtime.Time(1*ms), vtime.Time(60*ms))
	c.Run(150 * ms)

	for name, cl := range map[string]*shard.Client{"kv": ck, "idx": ci} {
		if cl.Stats.Submitted == 0 || cl.Stats.Acked != cl.Stats.Submitted {
			t.Fatalf("%s client acked %d of %d", name, cl.Stats.Acked, cl.Stats.Submitted)
		}
	}
	if err := kv.Check(); err != nil {
		t.Fatalf("kv: %v", err)
	}
	if err := idx.Check(); err != nil {
		t.Fatalf("idx: %v", err)
	}
}

// TestAuthoritativeNodeSkipsViewExcludedReplica: a replica isolated by
// a partition (never down) has an apply-log hole; the verifier must
// not adopt its log as the authoritative history even when it is
// re-promoted later.
func TestAuthoritativeNodeSkipsViewExcludedReplica(t *testing.T) {
	c := cluster.New(cluster.Config{Seed: 37})
	c.AddNodes(4)
	c.ConnectAll(100*us, 300*us)
	set := c.ShardsWith(1, 3, cluster.ShardConfig{})
	cl := set.ClientAt(3)
	submitEvery(c, cl, 2*ms, 0, vtime.Time(250*ms))
	// Isolate the primary (node 0); the majority promotes node 1 and
	// keeps serving; the heal re-admits 0 with a state transfer but
	// cannot backfill its apply log.
	c.PartitionAt(vtime.Time(40*ms), []int{0}, []int{1, 2, 3})
	c.HealAt(vtime.Time(120 * ms))
	c.Run(400 * ms)

	g := set.Groups()[0]
	node, ok := g.AuthoritativeNode()
	if !ok {
		t.Fatal("no hole-free replica")
	}
	if node == 0 {
		t.Fatal("verifier adopted the view-excluded replica's holed log")
	}
	if err := set.Check(); err != nil {
		t.Fatalf("consistency check: %v", err)
	}
}

// slowPort delays every message on one port past the client's retry
// timeout — a deterministic performance fault on the response path.
type slowPort struct {
	port  string
	extra vtime.Duration
}

func (s *slowPort) Judge(m *netsim.Message) netsim.Verdict {
	if m.Port == s.port {
		return netsim.Verdict{Fate: netsim.FateDelay, Extra: s.extra}
	}
	return netsim.Verdict{Fate: netsim.FateDeliver}
}

// TestShardsLateResponsesDoNotBurnBudget: responses slower than the
// retry timeout straddle attempts — the late OK of a superseded
// attempt must still ack the request (the command landed; dedup makes
// the live copy a cache hit), and no request may be abandoned by the
// fail-fast policy just because every verdict arrived late: were late
// verdicts dropped, each attempt would time out and the budget run dry.
func TestShardsLateResponsesDoNotBurnBudget(t *testing.T) {
	c := cluster.New(cluster.Config{Seed: 41})
	c.AddNodes(3) // 1 shard × 2 replicas + client
	c.ConnectAll(100*us, 300*us)
	set := c.ShardsWith(1, 2, cluster.ShardConfig{})
	// Every response arrives ~2ms after the 5ms timeout fired.
	c.InjectFault(&slowPort{port: "shard.shard.resp", extra: 7 * ms})
	cl := set.ClientWith(shard.ClientParams{Node: 2, Policy: shard.FailFast})
	submitEvery(c, cl, 10*ms, 0, vtime.Time(100*ms))
	c.Run(300 * ms)

	if cl.Stats.Timeouts == 0 {
		t.Fatalf("delay fault never outran the retry timeout: %+v", cl.Stats)
	}
	if cl.Stats.FailedFast != 0 {
		t.Fatalf("late verdicts burned the retry budget: %+v", cl.Stats)
	}
	if cl.Stats.Acked != cl.Stats.Submitted {
		t.Fatalf("acked %d of %d under delayed responses: %+v", cl.Stats.Acked, cl.Stats.Submitted, cl.Stats)
	}
	if err := set.Check(); err != nil {
		t.Fatalf("consistency check: %v", err)
	}
}

// TestShardsWithExplicitGroupsValidated: the direct cluster API
// rejects the same malformed explicit layouts the JSON path does.
func TestShardsWithExplicitGroupsValidated(t *testing.T) {
	cases := []struct {
		name   string
		groups [][]int
	}{
		{"overlapping groups", [][]int{{0, 1, 2}, {2, 3, 4}}},
		{"single-replica group", [][]int{{0}, {1, 2}}},
		{"node off platform", [][]int{{0, 1}, {2, 9}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := cluster.New(cluster.Config{Seed: 1})
			c.AddNodes(6)
			c.ConnectAll(100*us, 300*us)
			defer func() {
				if recover() == nil {
					t.Fatalf("%s accepted", tc.name)
				}
			}()
			c.ShardsWith(0, 0, cluster.ShardConfig{Groups: tc.groups})
		})
	}
}
