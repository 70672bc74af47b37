package shard_test

import (
	"testing"

	"hades/internal/cluster"
	"hades/internal/replication"
	"hades/internal/scenario"
	"hades/internal/shard"
	"hades/internal/vtime"
)

// TestSemiActiveReplicasNeverFork: replica agreement in log form. On
// every builtin, each semi-active replica that logs applies the same
// sequence its group's shared history holds: none ever departs from it,
// so the history is kept once per group, and the audits pass.
func TestSemiActiveReplicasNeverFork(t *testing.T) {
	for _, name := range scenario.BuiltinNames() {
		spec, err := scenario.Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		if spec.Shards == nil {
			continue
		}
		c, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		stop := shard.RecordForks()
		c.Run(spec.Horizon())
		if forks := stop(); len(forks) > 0 {
			t.Errorf("%s: %d replica(s) departed from the shared history, first %+v", name, len(forks), forks[0])
		}
		if err := c.Verify(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestPassiveFailoverForksAtPromotion: passive backups apply nothing,
// so the backup promoted when the primary crashes starts its own log
// with its first apply: one fork, by the new primary, at position 0,
// after the crash. Its log is the authoritative one from then on.
func TestPassiveFailoverForksAtPromotion(t *testing.T) {
	const ms = vtime.Millisecond
	c, set, horizon := auditCluster(1, 1, 200, cluster.ShardConfig{Style: replication.Passive, CheckpointEvery: 8})
	crash := vtime.Time(40 * ms)
	c.Crash(0, crash, 0)
	stop := shard.RecordForks()
	c.Run(horizon)
	forks := stop()

	g := groupsOf(set)[0]
	primary := g.Replication().Primary()
	if primary == 0 {
		t.Fatal("the crashed primary was never replaced")
	}
	want := shard.Fork{Group: g.Name(), Node: primary, At: 0}
	if len(forks) != 1 || forks[0].Group != want.Group || forks[0].Node != want.Node || forks[0].At != want.At || forks[0].When < crash {
		t.Fatalf("forks %+v, want one like %+v after %s", forks, want, crash)
	}
	if node, ok := g.AuthoritativeNode(); !ok || node != primary {
		t.Fatalf("authoritative node n%d (%v), want the new primary n%d", node, ok, primary)
	}
	if cl := set.Clients()[0]; cl.Stats.Acked != cl.Stats.Submitted {
		t.Fatalf("acked %d of %d", cl.Stats.Acked, cl.Stats.Submitted)
	}
}

// TestAuthoritativeNodeSkipsViewExcludedReplica: a replica isolated by
// a partition (never down) has an apply-log hole; the verifier must
// not adopt its log as the authoritative history even when it is
// re-promoted later.
func TestAuthoritativeNodeSkipsViewExcludedReplica(t *testing.T) {
	const (
		us = vtime.Microsecond
		ms = vtime.Millisecond
	)
	c := cluster.New(cluster.Config{Seed: 37})
	c.AddNodes(4)
	c.ConnectAll(100*us, 300*us)
	set := c.ShardsWith(1, 3, cluster.ShardConfig{})
	cl := set.ClientAt(3)
	keys := []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel"}
	for i, at := 0, vtime.Time(0); at < vtime.Time(250*ms); i, at = i+1, at.Add(2*ms) {
		k, cmd := keys[i%len(keys)], int64(i+1)
		c.At(at, func() { cl.Submit(k, cmd) })
	}
	// Isolate the primary (node 0); the majority promotes node 1 and
	// keeps serving; the heal re-admits 0 with a state transfer but
	// cannot backfill its apply log.
	c.PartitionAt(vtime.Time(40*ms), []int{0}, []int{1, 2, 3})
	c.HealAt(vtime.Time(120 * ms))
	c.Run(400 * ms)

	node, ok := groupsOf(set)[0].AuthoritativeNode()
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
