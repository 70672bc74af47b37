// Package hades_test holds the top-level benchmark harness. Every
// reproduced table or figure (`hades exp -list` names them) is one
// BenchmarkExperiments sub-benchmark running the same expkit.Run that
// `hades exp` runs; the two high-fanout benchmarks time the batched
// data planes.
package hades_test

import (
	"fmt"
	"testing"

	"hades/internal/cluster"
	"hades/internal/expkit"
	"hades/internal/session"
	"hades/internal/shard"
	"hades/internal/vtime"
)

const (
	us = vtime.Microsecond
	ms = vtime.Millisecond
)

// BenchmarkExperiments runs every registered experiment at quick scale.
// What each table must show is held by the expkit shape tests; this
// only times them.
func BenchmarkExperiments(b *testing.B) {
	for _, id := range expkit.IDs() {
		b.Run(id, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := expkit.Run(id, expkit.Options{Quick: true, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// highFanoutSession is the session discipline of the high-fanout
// benchmarks: batched and pipelined. (What batching buys over one op
// per round is recorded by the benchmark's replication.batch8_op_ns
// against semi_active_op_ns rows — see bench/.)
func highFanoutSession() session.Params {
	return session.Params{MaxBatch: 8, FlushInterval: 500 * us, PipelineDepth: 4}
}

// highFanoutKeys spreads the keyed workload wide enough that every
// burst has several ops per shard to coalesce.
var highFanoutKeys = func() []string {
	keys := make([]string, 32)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%02d", i)
	}
	return keys
}()

// highFanoutKV runs the batching/pipelining workload once under cfg
// (its Seed is the workload's own, 61): one client bursting 32 keys
// every 2 ms for 100 ms over a 4-shard plane — the shape where per-op
// wire messages and replication rounds dominate. A non-nil prepare sees
// the cluster before anything is built on it (a reader of the monitor
// window asks for its kinds there).
func highFanoutKV(cfg cluster.Config, prepare func(*cluster.Cluster)) (*cluster.Cluster, *cluster.ShardSet, *shard.Client) {
	cfg.Seed = 61
	c := cluster.New(cfg)
	if prepare != nil {
		prepare(c)
	}
	c.AddNodes(9) // 4 shards × 2 replicas + client
	c.ConnectAll(100*us, 300*us)
	set := c.ShardsWith(4, 2, cluster.ShardConfig{Session: highFanoutSession()})
	cl := set.ClientAt(8)
	n := 0
	for t := vtime.Duration(0); t < 100*ms; t += 2 * ms {
		for _, key := range highFanoutKeys {
			n++
			cmd := int64(n)
			c.At(vtime.Time(t), func() { cl.Submit(key, cmd) })
		}
	}
	// The run drains soon after the 100 ms burst window and
	// fast-forwards the idle tail of the horizon.
	c.Run(600 * ms)
	return c, set, cl
}

// BenchmarkHighFanoutKV times highFanoutKV with the observability
// planes at their defaults; TestObservabilityOverheadGate is its
// planes-off A/B.
func BenchmarkHighFanoutKV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, set, cl := highFanoutKV(cluster.Config{}, nil)
		if cl.Stats.Acked != cl.Stats.Submitted {
			b.Fatalf("acked %d of %d", cl.Stats.Acked, cl.Stats.Submitted)
		}
		if err := set.Check(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHighFanoutTxn is the group-commit workload: four
// transaction clients driving concurrent transfers over a 4-shard
// plane, so coordinator COMMIT/ABORT records pile up inside the flush
// window and one replicated round carries many of them.
func BenchmarkHighFanoutTxn(b *testing.B) {
	params := highFanoutSession()
	for i := 0; i < b.N; i++ {
		c := cluster.New(cluster.Config{Seed: 67})
		c.AddNodes(12) // 4 shards × 2 replicas + 4 txn clients
		c.ConnectAll(100*us, 300*us)
		set := c.ShardsWith(4, 2, cluster.ShardConfig{Session: params, GroupCommit: params})
		committed := 0
		for cn := 0; cn < 4; cn++ {
			tc := set.TxnClientAt(8 + cn)
			n := cn
			for t := vtime.Duration(0); t < 100*ms; t += 2 * ms {
				c.At(vtime.Time(t), func() {
					src := highFanoutKeys[n%len(highFanoutKeys)]
					dst := highFanoutKeys[(n+5)%len(highFanoutKeys)]
					n += 9
					tc.Transfer(src, dst, 1)
				})
			}
		}
		for _, tc := range c.Run(200 * ms).TxnClients {
			committed += tc.Committed
		}
		if committed == 0 {
			b.Fatal("no transaction committed")
		}
		if err := set.CheckTxns(); err != nil {
			b.Fatal(err)
		}
	}
}
