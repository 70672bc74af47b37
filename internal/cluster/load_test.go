package cluster_test

import (
	"bytes"
	"testing"

	"hades/internal/cluster"
	"hades/internal/load"
	"hades/internal/vtime"
)

// TestAttachLoadTxnAndReusedClient: a closed-loop transfer generator on
// a two-shard set creates its transaction client, and every transfer it
// offers is decided and audited; a kv generator on a node that already
// has a kv client submits through that client. The same seed gives a
// byte-identical report.
func TestAttachLoadTxnAndReusedClient(t *testing.T) {
	run := func() []byte {
		c := cluster.New(cluster.Config{Seed: 23})
		c.AddNodes(6) // 2 shards × 2 replicas + the txn and the kv client
		c.ConnectAll(100*us, 300*us)
		set := c.ShardsWith(2, 2, cluster.ShardConfig{})
		kv := set.ClientAt(5)
		xfer := set.AttachLoad(load.Config{Name: "xfer", Mode: load.Closed, Workload: load.Txn,
			Sessions: 4, Think: ms, Keys: accounts, Seed: 3, End: vtime.Time(100 * ms)}, []int{4})
		set.AttachLoad(load.Config{Name: "kv", Mode: load.Closed, Workload: load.KV,
			Sessions: 2, Think: ms, Keys: []string{"k0", "k1", "k2"}, Seed: 5, End: vtime.Time(100 * ms)}, []int{5})
		res := c.Run(400 * ms)
		if err := c.Verify(); err != nil {
			t.Fatal(err)
		}
		for _, l := range res.Loads {
			if l.Acked == 0 || l.Offered < l.Acked || int64(l.Latency.Count) != l.Acked {
				t.Fatalf("load %s: offered %d, acked %d, %d latencies", l.Name, l.Offered, l.Acked, l.Latency.Count)
			}
		}
		if len(res.Loads) != 2 || len(res.TxnClients) != 1 || res.TxnClients[0].Node != 4 {
			t.Fatalf("%d loads, txn clients %+v", len(res.Loads), res.TxnClients)
		}
		if cl := set.Clients(); len(cl) != 1 || cl[0] != kv || int64(kv.Stats.Acked) != res.Loads[1].Acked {
			t.Fatalf("kv load did not reuse node 5's client: %d clients, %d acked there", len(cl), kv.Stats.Acked)
		}
		if got := res.TxnClients[0].Committed + res.TxnClients[0].Aborted; int64(got) != xfer.Stats.Acked {
			t.Fatalf("txn client decided %d, generator acked %d", got, xfer.Stats.Acked)
		}
		var buf bytes.Buffer
		if err := c.ReportNow("attach-load").WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if a, b := run(), run(); !bytes.Equal(a, b) {
		t.Fatal("same seed, different reports")
	}
}
