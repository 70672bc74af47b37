package txn_test

import (
	"slices"
	"testing"

	"hades/internal/cluster"
	"hades/internal/membership"
	"hades/internal/netsim"
	"hades/internal/replication"
	"hades/internal/txn"
	"hades/internal/vtime"
)

const ms = vtime.Millisecond

var accounts = []string{"acct-a", "acct-b", "acct-c", "acct-d", "acct-e", "acct-f"}

// transferLoop runs n transfers on cl back to back, each begun when the
// one before it is decided, rotating over accounts from offset.
func transferLoop(cl *txn.Client, offset, n int) {
	i := 0
	var next func()
	next = func() {
		if i == n {
			return
		}
		from, to := accounts[(offset+i)%len(accounts)], accounts[(offset+i+1)%len(accounts)]
		i++
		cl.Transfer(from, to, 1).OnDone = next
	}
	next()
}

// held counts client's entries in tag space sp, seqs 1..upTo, in a
// replica's dedup table.
func held(sm *replication.StateMachine, sp replication.TagSpace, client int, upTo uint64) int {
	n := 0
	for s := uint64(1); s <= upTo; s++ {
		if _, ok := sm.Lookup(replication.Tag(sp, uint64(client), s)); ok {
			n++
		}
	}
	return n
}

// TestRetiredRecordsStayBounded: two clients run 2 500 contended
// transfers each across two 3-replica shards, fault-free. Once every
// transfer is decided, no participant holds a prepare, and a
// coordinator holds, per client, at most the last transaction it ran,
// whose passing floor that client never sent it. Every replica's
// dedup table holds, per client, at most the last decision its group
// logged and the last transfer's writes it applied: what lies above
// the floors the last items carried. A plane that retires nothing
// holds every record and entry of the run.
func TestRetiredRecordsStayBounded(t *testing.T) {
	const each = 2500
	c := cluster.New(cluster.Config{Seed: 1, Metrics: &cluster.MetricsParams{Disabled: true},
		Trace: &cluster.TraceParams{Disabled: true}})
	c.AddNodes(8) // 2 shards × 3 replicas + two clients
	set := c.ShardsWith(2, 3, cluster.ShardConfig{})
	clients := []*txn.Client{set.TxnClientAt(6), set.TxnClientAt(7)}
	c.At(vtime.Time(20*ms), func() {
		for i, cl := range clients {
			transferLoop(cl, 3*i, each)
		}
	})
	c.Run(30 * vtime.Second)

	if err := set.CheckTxns(); err != nil {
		t.Fatal(err)
	}
	p := clients[0].Plane()
	for _, cl := range clients {
		s := cl.Stats
		txnFloor, writeFloor := cl.Floors()
		if s.Begun != each || s.Committed+s.Aborted != each || s.Committed == 0 || cl.Open() != 0 {
			t.Fatalf("n%d: %d begun, %d committed, %d aborted, %d open; want all %d decided", cl.Node(), s.Begun, s.Committed, s.Aborted, cl.Open(), each)
		}
		if txnFloor != each || writeFloor != 2*each {
			t.Fatalf("n%d sends floors %d and %d, want %d and %d", cl.Node(), txnFloor, writeFloor, each, 2*each)
		}
	}
	for i, pa := range p.Participants() {
		if n := pa.Retained(); n != 0 {
			t.Errorf("shard %d's participant holds %d prepares with none open", i, n)
		}
	}
	for i, co := range p.Coordinators() {
		if n := co.Retained(); n > len(clients) {
			t.Errorf("shard %d's coordinator holds %d records, want at most one per client", i, n)
		}
	}
	for _, g := range p.Groups() {
		for _, node := range g.Nodes() {
			sm := g.Replication().Machine(node)
			for _, cl := range clients {
				d := held(sm, replication.TagTxnDecision, cl.Node(), each)
				w := held(sm, replication.TagTxnWrite, cl.Node(), 2*each)
				if d > 1 || w > 2 {
					t.Errorf("%s n%d holds %d decisions and %d writes of n%d, want at most 1 and 2", g.Name(), node, d, w, cl.Node())
				}
			}
		}
	}
}

// answerTap records what the plane sends one node: each protocol
// answer's kind, per transaction. It delivers every message as it is.
type answerTap struct {
	node int
	got  map[txn.ID][]string
}

func (a *answerTap) Judge(m *netsim.Message) netsim.Verdict {
	if kind, id, attempt := txn.Answer(m.Payload); m.To == a.node && kind != "" {
		if kind == "outcome" && attempt != 7 {
			kind = "outcome of another attempt"
		}
		a.got[id] = append(a.got[id], kind)
	}
	return netsim.Verdict{Fate: netsim.FateDeliver}
}

// TestLateCopiesAnsweredAsTheRecordsWere: after 24 back-to-back
// transfers, each coordinator keeps only its last transaction and no
// participant keeps a prepare. Late copies sent against the retired
// ids draw what the kept records answered: a submission at or below
// the floor one outcome, as a kept one does; a PREPARE nothing; a
// decision an ack. Ids never prepared keep their answers: a NO vote
// past the deadline, a fresh prepare's YES before it, an ack for an
// abort and nothing for a commit.
func TestLateCopiesAnsweredAsTheRecordsWere(t *testing.T) {
	c := cluster.New(cluster.Config{Seed: 3})
	c.AddNodes(7) // 2 shards × 3 replicas + the client
	set := c.ShardsWith(2, 3, cluster.ShardConfig{})
	cl := set.TxnClientAt(6)
	c.At(vtime.Time(20*ms), func() { transferLoop(cl, 0, 24) })
	c.Run(500 * ms)
	if cl.Stats.Committed != 24 {
		t.Fatalf("committed %d of 24 transfers", cl.Stats.Committed)
	}
	p := cl.Plane()
	for i, co := range p.Coordinators() {
		if co.Retained() != 1 {
			t.Fatalf("shard %d's coordinator holds %d records, want its last alone", i, co.Retained())
		}
		if p.Participants()[i].Retained() != 0 {
			t.Fatalf("shard %d's participant holds %d prepares", i, p.Participants()[i].Retained())
		}
	}

	type row struct {
		late txn.LateCopy
		want []string
	}
	var rows []row
	used := map[txn.ID]bool{}
	// pick returns a committed transfer not yet used whose predicate
	// holds, newest first when last is set.
	pick := func(last bool, ok func(txn.Record) bool) txn.Record {
		recs := slices.Clone(cl.Done)
		if last {
			slices.Reverse(recs)
		}
		for _, r := range recs {
			if !used[r.ID] && ok(r) {
				used[r.ID] = true
				return r
			}
		}
		t.Fatal("no transfer left to pick")
		return txn.Record{}
	}
	for s := range p.Groups() {
		coordinated := func(r txn.Record) bool { return p.CoordShard(r.ID) == s }
		kept, retired := pick(true, coordinated), pick(false, coordinated)
		rows = append(rows,
			row{txn.LateCopy{Kind: "begin", Num: kept.ID.Num}, []string{"outcome"}},
			row{txn.LateCopy{Kind: "begin", Num: retired.ID.Num}, []string{"outcome"}})
		for _, kind := range []string{"prepare", "commit", "abort"} {
			r := pick(false, func(r txn.Record) bool { return r.Ops[0].Shard == s })
			want := []string{"ack"}
			if kind == "prepare" {
				want = nil
			}
			rows = append(rows, row{txn.LateCopy{Kind: kind, Num: r.ID.Num, Shard: s, Key: r.Ops[0].Key,
				Deadline: vtime.Time(10 * vtime.Second)}, want})
		}
	}
	for s := range p.Groups() {
		fresh := uint64(1000 + 10*s)
		rows = append(rows,
			row{txn.LateCopy{Kind: "prepare", Num: fresh, Shard: s, Key: "acct-fresh", Deadline: vtime.Time(ms)}, []string{"no"}},
			row{txn.LateCopy{Kind: "prepare", Num: fresh + 1, Shard: s, Key: "acct-fresh", Deadline: c.Now().Add(200 * ms)}, []string{"yes"}},
			row{txn.LateCopy{Kind: "abort", Num: fresh + 2, Shard: s}, []string{"ack"}},
			row{txn.LateCopy{Kind: "commit", Num: fresh + 3, Shard: s}, nil})
	}

	tap := &answerTap{node: cl.Node(), got: map[txn.ID][]string{}}
	c.Network().SetFault(tap)
	for i, r := range rows {
		c.At(c.Now().Add(vtime.Duration(i+1)*ms), func() { cl.SendLate(r.late) })
	}
	c.Run(500 * ms)
	for _, r := range rows {
		id := txn.ID{Client: cl.Node(), Num: r.late.Num}
		if got := tap.got[id]; !slices.Equal(got, r.want) {
			t.Errorf("late %s of %s (shard %d): answered %q, want %q", r.late.Kind, id, r.late.Shard, got, r.want)
		}
	}
	for i, co := range p.Coordinators() {
		if co.Retained() != 1 || p.Participants()[i].Retained() != 0 {
			t.Errorf("shard %d holds %d coordinator records and %d prepares after the late copies, want 1 and 0",
				i, co.Retained(), p.Participants()[i].Retained())
		}
	}
	if err := set.CheckTxns(); err != nil {
		t.Fatal(err)
	}
}

// TestJoinerMirrorIsItsOwn: a replica that crashes and rejoins
// receives the decision mirror through the join's state transfer. It
// adopts the copy shipped for it, so its mirror is no other replica's.
func TestJoinerMirrorIsItsOwn(t *testing.T) {
	c := cluster.New(cluster.Config{Seed: 5})
	c.AddNodes(7) // 2 shards × 3 replicas + the client
	set := c.ShardsWith(2, 3, cluster.ShardConfig{})
	cl := set.TxnClientAt(6)
	c.At(vtime.Time(20*ms), func() { transferLoop(cl, 0, 200) })
	c.Crash(1, vtime.Time(60*ms), vtime.Time(150*ms)) // a backup of shard 0
	c.Run(2 * vtime.Second)

	p := cl.Plane()
	g := p.Groups()[0]
	if !slices.ContainsFunc(g.Membership().Transfers, func(x membership.Transfer) bool { return x.To == 1 && x.Key == "txn."+g.Name() }) {
		t.Fatalf("n1 never received the decision mirror: transfers %v", g.Membership().Transfers)
	}
	co := p.Coordinators()[0]
	joined := co.Mirror(1)
	if len(joined) == 0 {
		t.Fatal("the joiner's mirror is empty")
	}
	mark := txn.ID{Client: 99, Num: 1}
	joined[mark] = true
	for _, node := range []int{0, 2} {
		if _, ok := co.Mirror(node)[mark]; ok {
			t.Fatalf("n1's mirror is n%d's", node)
		}
	}
	delete(joined, mark)
	if err := set.CheckTxns(); err != nil {
		t.Fatal(err)
	}
}
