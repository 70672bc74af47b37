package shard_test

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"hades/internal/cluster"
	"hades/internal/replication"
	"hades/internal/scenario"
	"hades/internal/shard"
	"hades/internal/vtime"
)

// verifyKeys is the key space the audit fixtures write: enough keys that
// every shard owns several.
var verifyKeys = func() []string {
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
	}
	return keys
}()

// auditCluster lays out a fault-free data plane of groups 3-replica
// shards and clients clients, each submitting ops writes round-robin
// over verifyKeys, one every 500 µs. It returns the cluster, the set
// and the horizon that drains every write; faults go in before the run.
func auditCluster(groups, clients, ops int, cfg cluster.ShardConfig) (*cluster.Cluster, *cluster.ShardSet, vtime.Duration) {
	c := cluster.New(cluster.Config{Seed: 3, LogLimit: 1,
		Metrics: &cluster.MetricsParams{Disabled: true}, Trace: &cluster.TraceParams{Disabled: true}})
	c.AddNodes(groups*3 + clients)
	set := c.ShardsWith(groups, 3, cfg)
	every := 500 * vtime.Microsecond
	for j := 0; j < clients; j++ {
		cl := set.ClientAt(groups*3 + j)
		for i := 0; i < ops; i++ {
			key, cmd := verifyKeys[(i+j)%len(verifyKeys)], int64(i+1)
			c.At(vtime.Time(i)*vtime.Time(every), func() { cl.Submit(key, cmd) })
		}
	}
	return c, set, vtime.Duration(ops)*every + 100*vtime.Millisecond
}

// auditRun runs auditCluster's plane to its horizon and requires every
// write acked.
func auditRun(tb testing.TB, groups, clients, ops int) *cluster.ShardSet {
	tb.Helper()
	c, set, horizon := auditCluster(groups, clients, ops, cluster.ShardConfig{})
	c.Run(horizon)
	for _, cl := range set.Clients() {
		if cl.Stats.Acked != ops {
			tb.Fatalf("client n%d acked %d of %d", cl.Node(), cl.Stats.Acked, ops)
		}
	}
	return set
}

// groupsOf returns the set's shard groups, ring order.
func groupsOf(set *cluster.ShardSet) []*shard.Group { return set.Clients()[0].Groups() }

// locate finds the group and log position of client's request seq.
func locate(t *testing.T, set *cluster.ShardSet, client int, seq uint64) (*shard.Group, int) {
	t.Helper()
	for _, g := range groupsOf(set) {
		h, err := g.History()
		if err != nil {
			t.Fatal(err)
		}
		for p, a := range h.Log {
			if a.Client == client && a.Seq == seq {
				return g, p
			}
		}
	}
	t.Fatalf("request n%d#%d applied nowhere", client, seq)
	return nil, 0
}

// TestVerifyVerdicts: each way the exactly-once and per-key-order audit
// can fail is reported, with the text it has always had, and a correct
// run passes.
func TestVerifyVerdicts(t *testing.T) {
	const ops = 150 // every key written more than once per client
	for _, tc := range []struct {
		name string
		// doctor breaks the finished run and returns the error Verify
		// must report ("" for none).
		doctor func(t *testing.T, set *cluster.ShardSet) string
	}{
		{"correct run", func(t *testing.T, set *cluster.ShardSet) string {
			// The history is read in place, clipped so an append copies.
			h, err := groupsOf(set)[0].History()
			if err != nil {
				t.Fatal(err)
			}
			if len(h.Log) == 0 || cap(h.Log) != len(h.Log) {
				t.Fatalf("history of %d applies, capacity %d", len(h.Log), cap(h.Log))
			}
			return ""
		}},
		{"acked but missing", func(t *testing.T, set *cluster.ShardSet) string {
			cl := set.Clients()[0]
			ack := cl.Acks[5]
			g, p := locate(t, set, cl.Node(), ack.Seq)
			g.TamperHistory(func(log []shard.Applied) []shard.Applied { return slices.Delete(log, p, p+1) })
			return fmt.Sprintf("shard: acked request n%d#%d (key %q) missing from group %q history (acknowledged write lost)",
				cl.Node(), ack.Seq, ack.Key, g.Name())
		}},
		{"applied twice", func(t *testing.T, set *cluster.ShardSet) string {
			cl := set.Clients()[0]
			ack := cl.Acks[5]
			g, p := locate(t, set, cl.Node(), ack.Seq)
			g.TamperHistory(func(log []shard.Applied) []shard.Applied {
				again := log[p]
				again.Key = "elsewhere" // a key of its own keeps the per-key order clause quiet
				return append(log, again)
			})
			return fmt.Sprintf("shard: acked request n%d#%d (key %q) applied 2 times in group %q (exactly-once violated)",
				cl.Node(), ack.Seq, ack.Key, g.Name())
		}},
		{"result mismatch", func(t *testing.T, set *cluster.ShardSet) string {
			cl := set.Clients()[1]
			ack := &cl.Acks[7]
			ack.Result++
			return fmt.Sprintf("shard: acked request n%d#%d: client saw (key %q, result %d), history holds (key %q, result %d)",
				cl.Node(), ack.Seq, ack.Key, ack.Result, ack.Key, ack.Result-1)
		}},
		{"key mismatch", func(t *testing.T, set *cluster.ShardSet) string {
			cl := set.Clients()[1]
			ack := cl.Acks[7]
			g, p := locate(t, set, cl.Node(), ack.Seq)
			g.TamperHistory(func(log []shard.Applied) []shard.Applied {
				log[p].Key = "elsewhere"
				return log
			})
			return fmt.Sprintf("shard: acked request n%d#%d: client saw (key %q, result %d), history holds (key %q, result %d)",
				cl.Node(), ack.Seq, ack.Key, ack.Result, "elsewhere", ack.Result)
		}},
		{"per-key order violated", func(t *testing.T, set *cluster.ShardSet) string {
			// Swap one client's two first writes on one key in the
			// second group: the later seq now applies first.
			g := groupsOf(set)[1]
			h, err := g.History()
			if err != nil {
				t.Fatal(err)
			}
			first := h.Log[0]
			q := slices.IndexFunc(h.Log[1:], func(a shard.Applied) bool {
				return a.Key == first.Key && a.Client == first.Client
			}) + 1
			if q == 0 {
				t.Fatalf("client n%d wrote key %q once", first.Client, first.Key)
			}
			later := h.Log[q]
			g.TamperHistory(func(log []shard.Applied) []shard.Applied {
				log[0], log[q] = log[q], log[0]
				return log
			})
			return fmt.Sprintf("shard: group %q key %q: client n%d seq %d applied after seq %d (per-key order violated)",
				g.Name(), first.Key, first.Client, first.Seq, later.Seq)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			set := auditRun(t, 2, 2, ops)
			want := tc.doctor(t, set)
			err := set.Check()
			switch {
			case want == "" && err != nil:
				t.Fatalf("Verify: %v, want nil", err)
			case want != "" && (err == nil || err.Error() != want):
				t.Fatalf("Verify: %v\nwant:   %s", err, want)
			}
		})
	}

	t.Run("no hole-free replica", func(t *testing.T) {
		c, set, horizon := auditCluster(2, 2, ops, cluster.ShardConfig{})
		for n := 0; n < 3; n++ { // every replica of shard0 crashes, for good
			c.Crash(n, vtime.Time(5*vtime.Millisecond), 0)
		}
		c.Run(horizon)
		want := fmt.Sprintf("shard: group %q has no hole-free replica to verify against", groupsOf(set)[0].Name())
		if err := set.Check(); err == nil || err.Error() != want {
			t.Fatalf("Verify: %v\nwant:   %s", err, want)
		}
	})

	t.Run("passive shards", func(t *testing.T) {
		c, set, horizon := auditCluster(2, 2, ops, cluster.ShardConfig{Style: replication.Passive})
		c.Run(horizon)
		want := fmt.Sprintf("shard: verify needs semi-active shards (group %q is passive)", groupsOf(set)[0].Name())
		if err := set.Check(); err == nil || err.Error() != want {
			t.Fatalf("Verify: %v\nwant:   %s", err, want)
		}
	})
}

// oracleReq and oracleApplies are the map-built request index History
// kept before its per-client buckets: one map entry per request, its
// apply count and last apply. TestFindMatchesMapIndex holds Find to it.
type oracleReq struct {
	client int
	seq    uint64
}

type oracleApplies struct {
	last shard.Applied
	n    int
}

func oracleIndex(log []shard.Applied) map[oracleReq]oracleApplies {
	idx := make(map[oracleReq]oracleApplies, len(log))
	for _, a := range log {
		k := oracleReq{client: a.Client, seq: a.Seq}
		idx[k] = oracleApplies{last: a, n: idx[k].n + 1}
	}
	return idx
}

// randomLog draws an apply log over a few clients whose seqs are dense,
// gapped or scattered over the whole uint64 range, applied somewhat out
// of order, with some requests applied more than once (with a result or
// key of their own, so the last apply is told apart).
func randomLog(rng *rand.Rand) []shard.Applied {
	var log []shard.Applied
	for c := rng.IntN(4); c >= 0; c-- {
		client := rng.IntN(1000)
		seq := uint64(rng.IntN(3))
		for range rng.IntN(120) {
			switch rng.IntN(3) {
			case 0: // dense
				seq++
			case 1: // gapped
				seq += 1 + uint64(rng.IntN(50))
			default: // scattered, the extremes included
				seq = []uint64{0, math.MaxUint64, rng.Uint64(), seq + 1}[rng.IntN(4)]
			}
			log = append(log, shard.Applied{Key: fmt.Sprintf("k%d", rng.IntN(8)), Client: client, Seq: seq,
				Cmd: rng.Int64N(100), Result: rng.Int64N(1000)})
		}
	}
	// Interleave the clients, with local disorder inside each one.
	rng.Shuffle(len(log), func(i, j int) {
		if rng.IntN(4) == 0 {
			log[i], log[j] = log[j], log[i]
		}
	})
	for range rng.IntN(1 + len(log)/4) {
		if len(log) == 0 {
			break
		}
		again := log[rng.IntN(len(log))]
		again.Result++
		if rng.IntN(2) == 0 {
			again.Key += "'"
		}
		at := rng.IntN(len(log) + 1)
		log = slices.Insert(log, at, again)
	}
	return log
}

// TestFindMatchesMapIndex: over random logs with duplicates, gaps,
// disorder and several clients, Find answers every request — applied
// ones, their neighbours, the seq range's ends and unknown clients —
// as the map-built index does.
func TestFindMatchesMapIndex(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 34))
	for trial := 0; trial < 500; trial++ {
		log := randomLog(rng)
		h := shard.NewHistory(log)
		if len(h.Log) != len(log) || (len(log) > 0 && &h.Log[0] != &log[0]) {
			t.Fatalf("trial %d: History.Log is not the log it indexes", trial)
		}
		want := oracleIndex(log)
		probe := func(client int, seq uint64) {
			a, n := h.Find(client, seq)
			w := want[oracleReq{client: client, seq: seq}]
			if n != w.n || (n > 0 && a != w.last) {
				t.Fatalf("trial %d: Find(%d, %d) = %+v x%d, want %+v x%d", trial, client, seq, a, n, w.last, w.n)
			}
		}
		for _, a := range log {
			probe(a.Client, a.Seq)
			probe(a.Client, a.Seq+1)
			probe(a.Client, a.Seq-1)
			probe(a.Client+1, a.Seq)
		}
		probe(-1, 0)
		probe(0, math.MaxUint64)
	}
}

// TestClusterVerifyIndexesEachGroupOnce: on bank-transfer, where both
// the exactly-once and the atomic-commitment audit read every group's
// history, Cluster.Verify indexes each group once.
func TestClusterVerifyIndexesEachGroupOnce(t *testing.T) {
	spec, err := scenario.Builtin("bank-transfer")
	if err != nil {
		t.Fatal(err)
	}
	c, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	res := c.Run(spec.Horizon())
	if len(res.TxnClients) == 0 || len(res.Shards) < 2 || res.Shards[0].Style != replication.SemiActive {
		t.Fatalf("bank-transfer runs %d txn clients on %d shards; want both audits to apply", len(res.TxnClients), len(res.Shards))
	}
	stop := shard.CountIndexes()
	err = c.Verify()
	built := stop()
	if err != nil {
		t.Fatal(err)
	}
	if len(built) != len(res.Shards) {
		t.Fatalf("indexed %d of %d groups: %v", len(built), len(res.Shards), built)
	}
	for _, g := range res.Shards {
		if built[g.Name] != 1 {
			t.Errorf("group %q indexed %d times, want 1", g.Name, built[g.Name])
		}
	}
}

// BenchmarkVerify times the exactly-once and per-key-order audit over a
// 4-shard, 4-client history of 20 000 writes.
func BenchmarkVerify(b *testing.B) {
	set := auditRun(b, 4, 4, 5000)
	for b.Loop() {
		if err := set.Check(); err != nil {
			b.Fatal(err)
		}
	}
}
