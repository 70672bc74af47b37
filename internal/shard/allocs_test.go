//go:build !race

// The allocation gates live apart from the other tests because the race
// detector instruments allocation: under -race they would measure the
// detector, so that job does not build them (CI runs them by name in
// build-and-test, step "engine core and record door allocate nothing").

package shard_test

import (
	"testing"

	"hades/internal/cluster"
	"hades/internal/monitor"
	"hades/internal/vtime"
)

// TestAllocsKeyedWrite: a warm keyed write from Submit to ack, through
// one unbatched client and one 3-replica semi-active shard, on a full
// head-mode log with tracing and metrics off, costs what the op and its
// batch own and nothing per hop or per timer. At the client: the
// request (1); the batcher's slice (1); the batch record (1); per
// attempt the envelope's ops and their boxing (2). At the primary: the
// pending batch, its results and its op records (3); the round's ops
// and their one boxing for both backups (2). The batch's session call
// takes a recycled slot and fires the batch as its owner, which renders
// its label only for a record the log keeps; the reply timeout, the OK
// response and the per-key queue cost nothing.
func TestAllocsKeyedWrite(t *testing.T) {
	c := cluster.New(cluster.Config{Seed: 7, LogLimit: 1,
		Metrics: &cluster.MetricsParams{Disabled: true}, Trace: &cluster.TraceParams{Disabled: true}})
	c.AddNodes(4)
	cl := c.ShardsWith(1, 3, cluster.ShardConfig{}).ClientAt(3)
	eng := c.Engine()
	eng.Recordf(monitor.KindActivation, 0, "first", "") // the window is full
	c.Run(20 * vtime.Millisecond)                       // membership installs its first view
	keys := []string{"k0", "k1", "k2", "k3"}
	i := 0
	cycle := func() {
		cl.Submit(keys[i%len(keys)], int64(i+1))
		i++
		eng.Run(eng.Now().Add(3 * vtime.Millisecond))
	}
	for j := 0; j < 100; j++ {
		cycle() // warm-up: maps, logs, call list and free lists reach size
	}
	const want = 10 // 14 while the batch's call had a label, a Call, a Send closure and a trace-ref slice
	if got := testing.AllocsPerRun(200, cycle); got != want {
		t.Errorf("keyed write: %v allocs per run, want %d", got, want)
	}
	if cl.Stats.Acked != i || cl.Stats.Retries != 0 {
		t.Fatalf("acked %d of %d writes, %d retries", cl.Stats.Acked, i, cl.Stats.Retries)
	}
}

// TestAllocsVerify: the exactly-once and per-key-order audit allocates
// per group (its history's index and per-key table) and per client, not
// per request: over a 4-shard, 4-client history of 64 keys, ten times
// the writes cost the same allocations.
func TestAllocsVerify(t *testing.T) {
	allocs := func(ops int) float64 {
		set := auditRun(t, 4, 4, ops)
		return testing.AllocsPerRun(5, func() {
			if err := set.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(200), allocs(2000)
	t.Logf("Verify: %v allocs over 800 writes, %v over 8000", small, large)
	if large != small {
		t.Errorf("Verify: %v allocs over 8000 writes, %v over 800: the audit allocates per request", large, small)
	}
}
