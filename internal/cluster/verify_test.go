package cluster_test

import (
	"slices"
	"strings"
	"testing"

	"hades/internal/cluster"
	"hades/internal/replication"
	"hades/internal/scenario"
	"hades/internal/txn"
	"hades/internal/vtime"
)

// runBuiltin builds and runs one built-in scenario to its horizon.
func runBuiltin(t *testing.T, name string) (*cluster.Cluster, cluster.Result) {
	t.Helper()
	spec, err := scenario.Builtin(name)
	if err != nil {
		t.Fatal(err)
	}
	c, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c, c.Run(spec.Horizon())
}

// TestResultRowsArePlaneStats: the Result rows carry the planes' own
// stat structs, not a re-typed copy of them, and the counters a row
// copies out of a plane — a shard's coordinator and participant stats,
// a subscriber's deliveries, the tracer's counts — equal the plane's.
func TestResultRowsArePlaneStats(t *testing.T) {
	for _, name := range []string{"sharded-kv", "bank-transfer", "sensor-fan-out"} {
		c, res := runBuiltin(t, name)
		set := c.ShardSets()[0]
		if len(res.Shards) == 0 || len(res.Clients)+len(res.TxnClients)+len(res.Subscribers) == 0 {
			t.Fatalf("%s: no shard, client or subscriber rows in %+v", name, res)
		}
		for i, cl := range set.Clients() {
			if res.Clients[i].ClientStats != cl.Stats || res.Clients[i].Policy != cl.Params().Policy {
				t.Errorf("%s client %d: row %+v, plane %+v", name, i, res.Clients[i], cl.Stats)
			}
		}
		for i, g := range set.Groups() {
			if res.Shards[i].GroupStats != g.Stats || res.Shards[i].Style != g.Replication().Style() {
				t.Errorf("%s shard %d: row %+v, plane %+v", name, i, res.Shards[i], g.Stats)
			}
		}
		if plane := set.TxnPlane(); plane != nil {
			for i, tc := range plane.Clients() {
				if res.TxnClients[i].ClientStats != tc.Stats {
					t.Errorf("%s txn client %d: row %+v, plane %+v", name, i, res.TxnClients[i].ClientStats, tc.Stats)
				}
			}
			for i, co := range plane.Coordinators() {
				pa, row := plane.Participants()[i], res.Shards[i].Txn
				cs, ps := co.Stats, pa.Stats
				if row.Begins != cs.Begins || row.Commits != cs.Commits || row.Aborts != cs.Aborts ||
					row.DeadlineAborts != cs.DeadlineAborts || row.Queries != cs.Queries ||
					row.Prepares != ps.Prepares || row.LockWaits != ps.LockWaits ||
					row.VotesYes != ps.VotesYes || row.VotesNo != ps.VotesNo ||
					row.PartCommits != ps.Commits || row.PartAborts != ps.Aborts ||
					row.DeadlineReleases != ps.DeadlineReleases || row.LocksHeld != pa.LockedKeys() {
					t.Errorf("%s shard %d txn row %+v, coordinator %+v, participant %+v (locks %d)",
						name, i, row, cs, ps, pa.LockedKeys())
				}
			}
		} else if len(res.TxnClients) > 0 || slices.ContainsFunc(res.Shards, func(s cluster.ShardResult) bool { return s.Txn != cluster.TxnShardResult{} }) {
			t.Errorf("%s declares no transactions but has transaction rows", name)
		}
		var subs []cluster.SubscriberResult
		if p := set.PubSubPlane(); p != nil {
			for _, tp := range p.Topics() {
				for _, sub := range p.Subscribers(tp.Name()) {
					subs = append(subs, cluster.SubscriberResult{Topic: tp.Name(), Node: sub.Node(),
						Delivered: len(sub.Deliveries()), Suppressed: sub.Suppressed(), JoinAt: sub.JoinTime()})
				}
			}
		}
		if !slices.Equal(res.Subscribers, subs) {
			t.Errorf("%s subscriber rows %+v, plane %+v", name, res.Subscribers, subs)
		}
		tr := c.Tracer()
		started, finished, retained, violating := tr.Counts()
		if want := (cluster.TraceResult{Started: started, Finished: finished, Retained: retained,
			Violating: violating, Rate: tr.Rate()}); res.Traces != want || started == 0 {
			t.Errorf("%s trace row %+v, tracer %+v", name, res.Traces, want)
		}
	}
}

// committedWrite returns a committed transaction's record and the index
// of one of its writes.
func committedWrite(t *testing.T, p *txn.Plane) (*txn.Record, int) {
	t.Helper()
	for _, cl := range p.Clients() {
		for i := range cl.Done {
			rec := &cl.Done[i]
			if rec.Status != txn.StatusCommitted {
				continue
			}
			if w := slices.IndexFunc(rec.Ops, func(op txn.Op) bool { return op.Kind == txn.OpWrite }); w >= 0 {
				return rec, w
			}
		}
	}
	t.Fatal("no committed write to doctor")
	return nil, 0
}

// TestClusterVerify: one call audits every plane the run declared, and
// skips the exactly-once audit where the replication style voids it.
func TestClusterVerify(t *testing.T) {
	for _, name := range []string{"sharded-kv", "bank-transfer", "sensor-fan-out"} {
		c, _ := runBuiltin(t, name)
		if err := c.Verify(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}

	c, _ := runBuiltin(t, "sharded-kv")
	cl := c.ShardSets()[0].Clients()[0]
	cl.Acks[0].Result++
	if err := c.Verify(); err == nil || !strings.Contains(err.Error(), "n6#1") {
		t.Errorf("doctored ack n6#1 not reported: %v", err)
	}

	// Both audits read one index of the authoritative histories
	// (shard.Histories): the atomic-commitment audit still names a
	// committed write the history contradicts, and one the history lost.
	c, _ = runBuiltin(t, "bank-transfer")
	set := c.ShardSets()[0]
	rec, w := committedWrite(t, set.TxnPlane())
	rec.Ops[w].Cmd++
	if err := c.Verify(); err == nil || !strings.Contains(err.Error(), "history holds") || !strings.Contains(err.Error(), rec.ID.String()) {
		t.Errorf("doctored committed write of %s not reported: %v", rec.ID, err)
	}
	rec.Ops[w].Cmd--
	rec.Ops[w].Seq += 1 << 40
	if err := c.Verify(); err == nil || !strings.Contains(err.Error(), "torn transaction") {
		t.Errorf("committed write missing from the history not reported: %v", err)
	}
	rec.Ops[w].Seq -= 1 << 40
	if err := c.Verify(); err != nil {
		t.Errorf("restored records: %v", err)
	}
	for i, g := range set.Groups() {
		h, err := set.Histories().Of(i)
		if err != nil || len(h.Log) == 0 {
			t.Fatalf("%s: history of %d applies, err %v", g.Name(), len(h.Log), err)
		}
		first := h.Log[0]
		if a, n := h.Find(first.Client, first.Seq); n != 1 || a != first {
			t.Errorf("%s: Find(%d, %d) = %+v x%d, want the log's first apply once", g.Name(), first.Client, first.Seq, a, n)
		}
		if _, n := h.Find(first.Client, 1<<40); n != 0 {
			t.Errorf("%s: a request never applied found %d times", g.Name(), n)
		}
	}

	p := cluster.New(cluster.Config{Seed: 3})
	p.AddNodes(3)
	pset := p.ShardsWith(1, 2, cluster.ShardConfig{Style: replication.Passive})
	pc := pset.ClientAt(2)
	submitEvery(p, pc, 2*ms, 0, vtime.Time(40*ms))
	p.Run(80 * ms)
	if pc.Stats.Acked == 0 {
		t.Fatal("passive set served nothing")
	}
	if pset.Check() == nil {
		t.Fatal("the exactly-once audit accepted a passive set; Verify's skip is untested")
	}
	if err := p.Verify(); err != nil {
		t.Errorf("passive set: %v", err)
	}
}
