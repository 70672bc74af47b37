package shard_test

import (
	"testing"

	"hades/internal/cluster"
	"hades/internal/replication"
	"hades/internal/session"
	"hades/internal/vtime"
)

// held counts client node's kv entries, seqs 1..upTo, in a replica's
// dedup table, and the lowest seq among them.
func held(sm *replication.StateMachine, node int, upTo uint64) (n int, lowest uint64) {
	for s := uint64(1); s <= upTo; s++ {
		if _, ok := sm.Lookup(replication.Tag(replication.TagKV, uint64(node), s)); ok {
			if n == 0 {
				lowest = s
			}
			n++
		}
	}
	return n, lowest
}

// TestDedupTablesStayAboveTheFloor: the sharded-kv topology (two
// semi-active shards of three, one batching, pipelining client on eight
// keys), fault-free, over 10 000 ops. Every attempt carries the
// client's floor, so no replica's table holds an entry the client had
// retired when its previous probe ran, 50 ms earlier; and once a last
// op on each key has carried the final floor, every replica holds only
// those last ops — where a table that forgets nothing holds its
// shard's every op.
func TestDedupTablesStayAboveTheFloor(t *testing.T) {
	const ops, ms = 10000, vtime.Millisecond
	c := cluster.New(cluster.Config{Seed: 1, Metrics: &cluster.MetricsParams{Disabled: true},
		Trace: &cluster.TraceParams{Disabled: true}})
	c.AddNodes(7) // 2 shards × 3 replicas + client
	set := c.ShardsWith(2, 3, cluster.ShardConfig{
		Session: session.Params{MaxBatch: 4, FlushInterval: ms / 2, PipelineDepth: 2},
	})
	cl := set.ClientAt(6)
	keys := []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel"}
	every := 100 * vtime.Microsecond
	for i := 0; i < ops; i++ {
		key, cmd := keys[i%len(keys)], int64(i+1)
		c.At(vtime.Time(i)*vtime.Time(every), func() { cl.Submit(key, cmd) })
	}
	end := vtime.Time(ops) * vtime.Time(every)
	probes, peak := 0, 0
	var retired uint64 // the client's floor at the previous probe
	for at := vtime.Time(0); at < end; at = at.Add(50 * ms) {
		c.At(at, func() {
			probes++
			seq := uint64(cl.Stats.Submitted)
			for _, g := range cl.Groups() {
				for _, node := range g.Nodes() {
					n, lowest := held(g.Replication().Machine(node), cl.Node(), seq)
					if n > 0 && lowest <= retired {
						t.Errorf("at %s: %s n%d holds op %d, retired before %s (floor %d)",
							c.Now(), g.Name(), node, lowest, at.Add(-50*ms), retired)
					}
					peak = max(peak, n)
				}
			}
			retired = cl.Floor()
		})
	}
	c.At(end.Add(100*ms), func() {
		for _, key := range keys {
			cl.Submit(key, 0)
		}
	})
	c.Run(vtime.Duration(end) + 200*ms)
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
	total := uint64(ops + len(keys))
	if cl.Stats.Acked != int(total) || cl.Floor() != total || probes < 20 {
		t.Fatalf("acked %d, floor %d, %d probes; want %d, %d and at least 20", cl.Stats.Acked, cl.Floor(), probes, total, total)
	}
	t.Logf("peak entries per replica mid-run: %d of %d ops", peak, ops)
	for _, g := range cl.Groups() {
		last := 0
		for _, key := range keys {
			if cl.ShardFor(key) == g.Index() {
				last++
			}
		}
		for _, node := range g.Nodes() {
			if n, lowest := held(g.Replication().Machine(node), cl.Node(), total); n != last || lowest <= ops {
				t.Errorf("%s n%d holds %d entries from op %d, want the %d last ops alone (above %d)",
					g.Name(), node, n, lowest, last, ops)
			}
		}
	}
}
