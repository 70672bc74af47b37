package replication

import (
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"testing"

	"hades/internal/eventq"
	"hades/internal/fault"
	"hades/internal/netsim"
	"hades/internal/vtime"
)

// copySeen is the full-copy table transfer the journal replaced, kept
// here as the oracle: freezing and adopting a table used to be this.
func copySeen(in map[ClientSeq]int64) map[ClientSeq]int64 {
	if len(in) == 0 {
		return nil
	}
	out := make(map[ClientSeq]int64, len(in))
	for k, v := range in {
		out[k] = v
	}
	return out
}

// lineage names a machine state. Every op of a test schedule has its own
// command value, so equal (Applied, State) means the same ops applied in
// the same order — and under full-copy semantics the table travels with
// the state, so it is a function of the lineage.
type lineage struct{ applied, state int64 }

func lineageOf(sm *StateMachine) lineage { return lineage{sm.Applied, sm.State} }

// oracle shadows a passive group with the old semantics: one table per
// replica, entered on every fresh apply, replaced by a full copy of the
// sender's table (as it stood when the state was frozen) on every
// checkpoint delivery and state transfer.
type oracle struct {
	t      *testing.T
	g      *Group
	table  map[int]map[ClientSeq]int64
	frozen map[lineage]map[ClientSeq]int64 // table at every state a replica ever reached
	checks int
}

// watched is the Owner of one op the oracle submitted: every fresh
// apply enters the old-style table and is checked against the journal.
type watched struct {
	o   *oracle
	tag ClientSeq
}

func (w watched) Applied(node int, res int64) {
	o := w.o
	if w.tag != (ClientSeq{}) {
		if _, dup := o.table[node][w.tag]; dup {
			o.t.Fatalf("n%d applied %v twice: the table it was holding should have suppressed it", node, w.tag)
		}
		if o.table[node] == nil {
			o.table[node] = make(map[ClientSeq]int64)
		}
		o.table[node][w.tag] = res
	}
	o.frozen[lineageOf(o.g.Machine(node))] = copySeen(o.table[node])
	o.check(node, "apply")
}

func (watched) Replied(int64, bool) {}

func watch(t *testing.T, r rigT, g *Group) *oracle {
	o := &oracle{
		t: t, g: g,
		table:  make(map[int]map[ClientSeq]int64),
		frozen: map[lineage]map[ClientSeq]int64{{}: nil},
	}
	for _, node := range g.cfg.Replicas {
		r.net.Bind(node, g.ckptPort, func(m *netsim.Message) {
			g.handleCheckpoint(node, m)
			ck := m.Payload.(ckptMsg)
			o.adopted(node, ck, "checkpoint")
		})
	}
	// A second hook pair under the group's own key: it ships nothing and
	// runs right after the group's restore on every arriving transfer.
	r.mem.RegisterState("repl."+g.cfg.Name, func(int, int) any { return nil }, func(node int, data any) {
		o.adopted(node, data.(ckptMsg), "transfer")
	})
	return o
}

// adopted replays a delivery the old way. A delivery the view-boundary
// flush discarded leaves the machine on its own lineage; the table must
// then be what it was.
func (o *oracle) adopted(node int, ck ckptMsg, what string) {
	if lineageOf(o.g.Machine(node)) == (lineage{ck.Applied, ck.State}) {
		from, ok := o.frozen[lineage{ck.Applied, ck.State}]
		if !ok {
			o.t.Fatalf("%s to n%d carries a state no replica ever reached: %+v", what, node, ck)
		}
		o.table[node] = copySeen(from)
	}
	o.check(node, what)
}

func (o *oracle) check(node int, what string) {
	o.checks++
	sm := o.g.Machine(node)
	if !maps.Equal(sm.seen, o.table[node]) {
		o.t.Fatalf("at %s, after %s at n%d (epoch %d, journal %d): table has %d entries, full-copy semantics give %d",
			o.g.eng.Now(), what, node, sm.epoch, len(sm.journal), len(sm.seen), len(o.table[node]))
	}
	if len(sm.journal) != len(sm.seen) {
		o.t.Fatalf("after %s at n%d: journal lists %d entries, table holds %d", what, node, len(sm.journal), len(sm.seen))
	}
}

// submit issues one op under the oracle's watch; a tagged op's command
// is a function of its tag.
func (o *oracle) submit(from int, cmd int64, tag ClientSeq) {
	if tag != (ClientSeq{}) {
		cmd = int64(tag.Client*1_000_000 + tag.Seq)
	}
	o.g.SubmitBatch(from, []BatchItem{{Cmd: cmd, Tag: tag, Owner: watched{o, tag}}})
}

// TestJournalMatchesFullCopyOracle drives seeded random schedules of
// tagged submits, duplicate resubmits, crash-and-rejoin and
// partition-and-merge episodes over a three-replica passive group, and
// holds every replica's table, after every apply, checkpoint delivery
// and state transfer, to what shipping full copies gives.
func TestJournalMatchesFullCopyOracle(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			r := rig(t, 4)
			g, _ := newGroup(t, r, Passive, []int{0, 1, 2})
			o := watch(t, r, g)

			const episodes, episode = 4, 250 * ms
			// One fault per episode, repaired well before the next so the
			// group is whole again: a replica crashes and rejoins, or is
			// cut off alone (the client stays with the majority) and
			// merges back.
			for e := 0; e < episodes; e++ {
				at := vtime.Time(vtime.Duration(e)*episode + 20*ms + vtime.Duration(rng.Intn(30_000))*us)
				back := at.Add(60*ms + vtime.Duration(rng.Intn(40_000))*us)
				victim := rng.Intn(3)
				if rng.Intn(2) == 0 {
					fault.CrashAt(r.eng, r.net, victim, at, back)
				} else {
					rest := []int{3}
					for n := 0; n < 3; n++ {
						if n != victim {
							rest = append(rest, n)
						}
					}
					fault.PartitionAt(r.eng, r.net, at, 0, []int{victim}, rest)
					fault.HealAt(r.eng, r.net, back)
				}
			}
			// Ops all along, one in five a resubmission of an earlier tag
			// (a retry: same tag, same command), one in ten untagged.
			var issued []ClientSeq
			for at := vtime.Duration(0); at < episodes*episode; at += 400*us + vtime.Duration(rng.Intn(1200))*us {
				tag := ClientSeq{Client: uint64(1 + rng.Intn(3)), Seq: uint64(len(issued) + 1)}
				switch k := rng.Intn(10); {
				case k < 2 && len(issued) > 0:
					tag = issued[rng.Intn(len(issued))]
				case k == 2:
					r.eng.At(vtime.Time(at), eventq.ClassApp, func() { o.submit(3, -int64(at)-1, ClientSeq{}) })
					continue
				default:
					issued = append(issued, tag)
				}
				r.eng.At(vtime.Time(at), eventq.ClassApp, func() { o.submit(3, 0, tag) })
			}
			r.eng.Run(vtime.Time(episodes*episode + 50*ms))

			if len(r.mem.Transfers) == 0 || g.Duplicates == 0 || o.checks < len(issued) {
				t.Fatalf("schedule too tame: %d transfers, %d duplicates, %d checks over %d ops",
					len(r.mem.Transfers), g.Duplicates, o.checks, len(issued))
			}
			if g.StoreErrors != 0 {
				t.Fatalf("%d stable-store writes failed", g.StoreErrors)
			}
		})
	}
}

// TestStaleLineageRebuilds: an ex-primary that applied ops past its last
// checkpoint and was then excluded comes back holding exactly the new
// primary's table — its un-checkpointed entries are gone, as when the
// transfer replaced the whole map, so a retry of one is applied afresh
// (once), not answered from a table no surviving state covers. If the
// new primary served requests meanwhile the transfer is of a foreign
// lineage and rebuilds; if it served none, it is a shorter prefix of
// the ex-primary's own lineage, which drops its tail.
func TestStaleLineageRebuilds(t *testing.T) {
	for _, served := range []int{5, 0} {
		t.Run(fmt.Sprintf("served=%d", served), func(t *testing.T) {
			r := rig(t, 4)
			g, _ := newGroup(t, r, Passive, []int{0, 1, 2}) // CheckpointEvery: 5
			tag := func(seq int) ClientSeq { return ClientSeq{Client: 4, Seq: uint64(seq)} }
			submit := func(at vtime.Duration, seq int) {
				r.eng.At(vtime.Time(at), eventq.ClassApp, func() { g.SubmitTagged(3, int64(seq), tag(seq)) })
			}
			// Seven ops: a checkpoint after the fifth, ops 6 and 7 only at n0.
			for i := 1; i <= 7; i++ {
				submit(vtime.Duration(i)*ms, i)
			}
			fault.PartitionAt(r.eng, r.net, vtime.Time(9*ms), 0, []int{0}, []int{1, 2, 3})
			r.eng.Run(vtime.Time(10 * ms))
			old := g.Machine(0)
			if old.seenLen() != 7 || g.Machine(1).seenLen() != 5 {
				t.Fatalf("before the failover: primary holds %d entries, backup %d, want 7 and 5", old.seenLen(), g.Machine(1).seenLen())
			}
			staleEpoch := old.epoch

			// The majority promotes n1, which serves ops 8.. on a lineage
			// of its own; then the heal re-admits n0 through a merge
			// transfer.
			for i := 8; i < 8+served; i++ {
				submit(100*ms+vtime.Duration(i)*ms, i)
			}
			fault.HealAt(r.eng, r.net, vtime.Time(150*ms))
			r.eng.Run(vtime.Time(300 * ms))
			if g.Primary() != 1 || len(r.mem.Transfers) != 1 || r.mem.Transfers[0].To != 0 {
				t.Fatalf("primary n%d, transfers %+v: want n1 and one transfer to n0", g.Primary(), r.mem.Transfers)
			}
			prim := g.Machine(1)
			if old.epoch != prim.epoch || (prim.epoch == staleEpoch) != (served == 0) || old.owns {
				t.Fatalf("epochs: ex-primary %d (owns=%v), new primary %d, stale lineage %d", old.epoch, old.owns, prim.epoch, staleEpoch)
			}
			if !maps.Equal(old.seen, prim.seen) || old.seenLen() != 5+served || len(old.journal) != 5+served {
				t.Fatalf("re-admitted ex-primary holds %d entries (journal %d), the primary %d, want %d and equal",
					old.seenLen(), len(old.journal), prim.seenLen(), 5+served)
			}
			for _, seq := range []int{6, 7} {
				if _, ok := old.Lookup(tag(seq)); ok {
					t.Fatalf("un-checkpointed entry %d survived the transfer at the ex-primary", seq)
				}
			}

			// A retry of op 6 is new to the surviving lineage: applied
			// once, and from then on answered from the table.
			applied, dups := prim.Applied, g.Duplicates
			r.eng.At(vtime.Time(301*ms), eventq.ClassApp, func() { g.SubmitTagged(3, 6, tag(6)) })
			r.eng.At(vtime.Time(305*ms), eventq.ClassApp, func() { g.SubmitTagged(3, 6, tag(6)) })
			r.eng.Run(vtime.Time(320 * ms))
			if prim.Applied != applied+1 || g.Duplicates != dups+1 {
				t.Fatalf("retry of a lost op: applied %d -> %d, duplicates %d -> %d; want one apply then one cache hit",
					applied, prim.Applied, dups, g.Duplicates)
			}
		})
	}
}

// TestPromotedBackupDoesNotAliasJournal: a backup holds the primary's
// journal by reference. When it is promoted while the old primary, cut
// off but alive, keeps appending, the two must part: neither sees the
// other's entries, and the third replica's prefix stays as shipped.
func TestPromotedBackupDoesNotAliasJournal(t *testing.T) {
	r := rig(t, 4)
	g, _ := newGroup(t, r, Passive, []int{0, 1, 2}) // CheckpointEvery: 5
	for i := 1; i <= 5; i++ {
		seq := uint64(i)
		r.eng.At(vtime.Time(vtime.Duration(i)*ms), eventq.ClassApp, func() {
			g.SubmitTagged(3, int64(seq), ClientSeq{Client: 4, Seq: seq})
		})
	}
	fault.PartitionAt(r.eng, r.net, vtime.Time(8*ms), 0, []int{0}, []int{1, 2, 3})
	r.eng.Run(vtime.Time(100 * ms))
	old, promoted, third := g.Machine(0), g.Machine(1), g.Machine(2)
	if g.Primary() != 1 || len(promoted.journal) != 5 || len(third.journal) != 5 {
		t.Fatalf("primary n%d, journals %d/%d: want n1 promoted holding the 5 checkpointed entries", g.Primary(), len(promoted.journal), len(third.journal))
	}
	if &old.journal[0] != &promoted.journal[0] || cap(old.journal) <= 5 || cap(promoted.journal) != 5 {
		t.Fatalf("precondition: the backup must share the primary's array (with room after the prefix on the primary's side only); caps %d/%d",
			cap(old.journal), cap(promoted.journal))
	}
	shipped := append([]seenEntry(nil), third.journal...)

	// Interleaved: the stale primary finishes work it had in hand, the
	// promoted backup serves new requests (no checkpoint falls due).
	for i := 0; i < 3; i++ {
		g.applyOne(0, old, &op{id: uint64(100 + i), cmd: 1, tag: ClientSeq{Client: 5, Seq: uint64(i + 1)}})
		g.applyOne(1, promoted, &op{id: uint64(200 + i), cmd: 2, tag: ClientSeq{Client: 6, Seq: uint64(i + 1)}})
	}
	if old.epoch == promoted.epoch {
		t.Fatalf("promoted backup kept the old primary's epoch %d", old.epoch)
	}
	for _, c := range []struct {
		name   string
		sm     *StateMachine
		client uint64 // whose tags its own appends carry
	}{{"old primary", old, 5}, {"promoted backup", promoted, 6}} {
		if len(c.sm.journal) != 8 || c.sm.seenLen() != 8 {
			t.Fatalf("%s: journal %d, table %d, want 8", c.name, len(c.sm.journal), c.sm.seenLen())
		}
		for i, e := range c.sm.journal {
			if i < 5 && e != shipped[i] {
				t.Fatalf("%s: shared prefix entry %d changed: %+v", c.name, i, e)
			}
			if i >= 5 && e.Tag.Client != c.client {
				t.Fatalf("%s: entry %d is the other lineage's: %+v", c.name, i, e)
			}
		}
	}
	for i, e := range third.journal {
		if e != shipped[i] {
			t.Fatalf("third replica's entry %d changed under it: %+v", i, e)
		}
	}
}

// prefilled is a passive group whose primary and backups already hold a
// dedup table of seen entries on one lineage, as after a long run.
func prefilled(tb testing.TB, seen int) (rigT, *Group) {
	tb.Helper()
	r := rig(tb, 4)
	g, err := NewGroup(r.eng, r.net, r.mem, Config{
		Name: "g", Replicas: []int{0, 1, 2}, Style: Passive,
		WExec: 100 * us, CheckpointEvery: 8, StorageLatency: 20 * us,
	}, nil)
	if err != nil {
		tb.Fatal(err)
	}
	sm := g.Machine(0)
	for i := 0; i < seen; i++ {
		g.remember(sm, ClientSeq{Client: 1, Seq: uint64(i + 1)}, int64(i))
	}
	ck := g.freeze(0)
	g.adopt(1, ck)
	g.adopt(2, ck)
	return r, g
}

// checkpointRound applies one checkpoint interval of fresh tagged ops at
// the primary — the last one takes the checkpoint — and runs until both
// backups have adopted it and all three stable stores have written.
func checkpointRound(r rigT, g *Group, round int) {
	sm := g.Machine(0)
	for i := 0; i < g.cfg.CheckpointEvery; i++ {
		seq := uint64(round*g.cfg.CheckpointEvery + i + 1)
		g.applyOne(0, sm, &op{id: seq, cmd: int64(seq), tag: ClientSeq{Client: 2, Seq: seq}})
	}
	r.eng.Run(r.eng.Now().Add(ms))
}

// TestCheckpointCostIsFlat: what one checkpoint round allocates — at the
// primary and both backups — must not grow with the table. It compares
// bytes allocated per round at 100 000 entries with the same at 1 000,
// in one process, with no clock. (A full copy per replica made this
// ratio about 100.) The rounds stay inside one capacity step of the
// journal, whose amortised doubling is the one lump append has.
func TestCheckpointCostIsFlat(t *testing.T) {
	const rounds = 64
	perRound := func(seen int) float64 {
		r, g := prefilled(t, seen)
		sm := g.Machine(0)
		for spare := 0; cap(sm.journal)-len(sm.journal) < (rounds+1)*g.cfg.CheckpointEvery; spare++ {
			g.remember(sm, ClientSeq{Client: 3, Seq: uint64(spare + 1)}, 0)
		}
		checkpointRound(r, g, 0) // brings the backups level, warms the engine's pools
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 1; i <= rounds; i++ {
			checkpointRound(r, g, i)
		}
		runtime.ReadMemStats(&after)
		for _, n := range []int{1, 2} {
			if got, want := g.Machine(n).seenLen(), sm.seenLen(); got != want {
				t.Fatalf("backup n%d holds %d entries after the rounds, the primary %d", n, got, want)
			}
		}
		return float64(after.TotalAlloc-before.TotalAlloc) / rounds
	}
	small, large := perRound(1_000), perRound(100_000)
	t.Logf("bytes allocated per checkpoint round: %.0f at 1k entries, %.0f at 100k (x%.2f)", small, large, large/small)
	if large > 2*small {
		t.Fatalf("a checkpoint round allocates %.0f B at 100k entries against %.0f B at 1k: cost grows with the table", large, small)
	}
}

// BenchmarkPassiveCheckpoint times one checkpoint round (eight applies,
// the checkpoint, two backup adoptions, three stable-store writes) at
// three table sizes; flat is the point.
func BenchmarkPassiveCheckpoint(b *testing.B) {
	for _, seen := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("seen=%dk", seen/1000), func(b *testing.B) {
			r, g := prefilled(b, seen)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				checkpointRound(r, g, i)
			}
		})
	}
}

// TestCheckpointReachesStableStorage: every checkpoint and join transfer
// leaves a decodable record on the stable store of the replica that took
// or adopted it. (The record used to be the wire message, whose table
// encoding/json rejects, behind a callback that dropped the error.)
func TestCheckpointReachesStableStorage(t *testing.T) {
	r := rig(t, 4)
	g, _ := newGroup(t, r, Passive, []int{0, 1, 2})
	fault.CrashAt(r.eng, r.net, 2, vtime.Time(10*ms), vtime.Time(100*ms))
	for i := 0; i < 200; i++ {
		seq := uint64(i + 1)
		r.eng.At(vtime.Time(vtime.Duration(i)*ms), eventq.ClassApp, func() {
			g.SubmitTagged(3, int64(seq), ClientSeq{Client: 4, Seq: seq})
		})
	}
	r.eng.Run(vtime.Time(300 * ms))
	if len(r.mem.Transfers) != 1 {
		t.Fatalf("transfers %+v, want the rejoin's", r.mem.Transfers)
	}
	if g.StoreErrors != 0 {
		t.Fatalf("%d stable-store writes failed", g.StoreErrors)
	}
	for _, n := range []int{0, 1, 2} {
		if g.stores[n].Writes == 0 {
			t.Fatalf("n%d's stable store holds no checkpoint", n)
		}
		var rec ckptRecord
		if err := g.stores[n].Read(g.ckptKey, &rec); err != nil {
			t.Fatalf("n%d: %v", n, err)
		}
		sm := g.Machine(n)
		if rec.Applied != 200 || rec.State != sm.State || rec.SeenLen != sm.seenLen() || rec.Epoch != sm.epoch {
			t.Fatalf("n%d: stored %+v, machine applied=%d state=%d seen=%d epoch=%d", n, rec, sm.Applied, sm.State, sm.seenLen(), sm.epoch)
		}
	}

	// A store that refuses the write is counted, nothing more.
	g.stores[1].Crash()
	g.persist(1, g.freeze(1))
	if g.StoreErrors != 1 {
		t.Fatalf("store errors %d after a write to a crashed store, want 1", g.StoreErrors)
	}
}

// TestRepliesOnlyKeptForVoting: an op's record collects per-replica
// results for the active style's vote only; the styles with an
// authoritative primary keep none. Every record is answered once.
func TestRepliesOnlyKeptForVoting(t *testing.T) {
	for _, c := range []struct {
		style Style
		votes int // per record, every replica answering
	}{{Active, 3}, {SemiActive, 0}, {Passive, 0}} {
		r := rig(t, 4)
		g, results := newGroup(t, r, c.style, []int{0, 1, 2})
		records := map[*op]bool{}
		for _, node := range g.cfg.Replicas {
			r.net.Bind(node, g.reqPort, func(m *netsim.Message) {
				for i := range m.Payload.(batchMsg).Ops {
					records[&m.Payload.(batchMsg).Ops[i]] = true
				}
				g.handleRequest(node, m)
			})
		}
		drive(r, g, 3, 10)
		r.eng.Run(vtime.Time(50 * ms))
		if len(*results) != 10 || len(records) != 10 {
			t.Fatalf("%s: %d results over %d records, want 10 and 10", c.style, len(*results), len(records))
		}
		for o := range records {
			votes := 0
			if o.votes != nil {
				votes = len(*o.votes)
			}
			if votes != c.votes || !o.answered {
				t.Fatalf("%s: op %d kept %d votes (answered %v), want %d", c.style, o.id, votes, o.answered, c.votes)
			}
		}
	}
}
