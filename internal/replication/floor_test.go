package replication

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"

	"hades/internal/eventq"
	"hades/internal/fault"
	"hades/internal/netsim"
	"hades/internal/vtime"
)

// ledger is the Owner of the ops a floor test submits: it counts each
// op's fresh applies, per node, and its authoritative answers.
type ledger struct {
	applied map[uint64][]int // seq -> nodes that applied it
	replied map[uint64]int
}

func newLedger() *ledger {
	return &ledger{applied: map[uint64][]int{}, replied: map[uint64]int{}}
}

type ledgerOp struct {
	l   *ledger
	seq uint64
}

func (o ledgerOp) Applied(node int, _ int64) { o.l.applied[o.seq] = append(o.l.applied[o.seq], node) }
func (o ledgerOp) Replied(int64, bool)       { o.l.replied[o.seq]++ }

// kvTag is writer 3's tag in the kv space.
func kvTag(seq uint64) ClientSeq { return Tag(TagKV, 3, seq) }

// submitAt submits writer 3's op seq, carrying floor, from node 3 at at.
func submitAt(r rigT, g *Group, l *ledger, at vtime.Duration, seq, floor uint64) {
	r.eng.At(vtime.Time(at), eventq.ClassApp, func() {
		g.SubmitOwned(3, []BatchItem{{Cmd: int64(seq), Tag: kvTag(seq), Owner: ledgerOp{l, seq}, Floor: floor}})
	})
}

// kvEntries returns which of writer 3's seqs 1..upTo sm's table holds.
func kvEntries(sm *StateMachine, upTo uint64) []uint64 {
	var held []uint64
	for s := uint64(1); s <= upTo; s++ {
		if _, ok := sm.Lookup(kvTag(s)); ok {
			held = append(held, s)
		}
	}
	return held
}

// TestItemAtOrBelowFloorIsADuplicate: the writer gave up on op 4 (it
// failed fast before any attempt landed), so its next op carries floor
// 5. A late attempt of op 4 then reaches every replica: none applies
// it, each counts a duplicate, the leader answers it, and its owner
// never hears an apply. The table forgets ops 1-5 everywhere.
func TestItemAtOrBelowFloorIsADuplicate(t *testing.T) {
	r := rig(t, 4)
	g, _ := newGroup(t, r, SemiActive, []int{0, 1, 2})
	l := newLedger()
	for i, seq := range []uint64{1, 2, 3, 5} {
		submitAt(r, g, l, vtime.Duration(i+1)*ms, seq, 0)
	}
	submitAt(r, g, l, 10*ms, 6, 5)
	submitAt(r, g, l, 15*ms, 4, 3) // the late attempt, with the floor it left with
	r.eng.Run(vtime.Time(40 * ms))

	if got := l.applied[4]; len(got) != 0 {
		t.Fatalf("op 4 reached Owner.Applied at %v; a retired op must not apply", got)
	}
	if l.replied[4] != 1 {
		t.Fatalf("op 4 answered %d times, want the leader's one reply", l.replied[4])
	}
	if g.Duplicates != 3 {
		t.Fatalf("duplicates %d, want 3 (op 4 at each replica)", g.Duplicates)
	}
	for _, n := range []int{0, 1, 2} {
		sm := g.Machine(n)
		if sm.Applied != 5 {
			t.Fatalf("n%d applied %d ops, want 5 (1, 2, 3, 5, 6)", n, sm.Applied)
		}
		if held := kvEntries(sm, 6); len(held) != 1 || held[0] != 6 {
			t.Fatalf("n%d's table holds %v, want only op 6 above floor 5", n, held)
		}
	}
}

// TestPassiveCheckpointCarriesFloors: a checkpoint ships the primary's
// floors with its journal. The backups forget what the floors retire,
// and once promoted, one refuses a late retry of a retired op it holds
// no entry for.
func TestPassiveCheckpointCarriesFloors(t *testing.T) {
	r := rig(t, 4)
	g, _ := newGroup(t, r, Passive, []int{0, 1, 2}) // CheckpointEvery: 5
	l := newLedger()
	// Ops 1-10, each acked before the next leaves: op s carries floor s-1.
	for s := uint64(1); s <= 10; s++ {
		submitAt(r, g, l, vtime.Duration(s)*ms, s, s-1)
	}
	r.eng.Run(vtime.Time(20 * ms))
	for _, n := range []int{0, 1, 2} {
		sm := g.Machine(n)
		if f := sm.floor(kvTag(1)); f != 9 {
			t.Fatalf("n%d holds floor %d, want the checkpoint's 9", n, f)
		}
		if held := kvEntries(sm, 10); len(held) != 1 || held[0] != 10 {
			t.Fatalf("n%d's table holds %v, want only op 10", n, held)
		}
		if len(sm.journal) != 10 {
			t.Fatalf("n%d's journal lists %d entries, want 10 (too short to compact)", n, len(sm.journal))
		}
	}

	fault.CrashAt(r.eng, r.net, 0, vtime.Time(21*ms), 0)
	submitAt(r, g, l, 80*ms, 7, 6)
	r.eng.Run(vtime.Time(120 * ms))
	p := g.Primary()
	if p == 0 {
		t.Fatal("no failover")
	}
	if got := g.Machine(p).Applied; got != 10 || len(l.applied[7]) != 1 || l.replied[7] != 2 {
		t.Fatalf("promoted n%d applied %d ops, op 7 applied at %v and answered %d times; want 10, one apply, two answers",
			p, got, l.applied[7], l.replied[7])
	}
}

// TestJoinTransferCarriesFloors: a semi-active replica that was down
// while the floors rose comes back through a join transfer holding the
// donor's floors and table, and refuses a retired op as the others do.
func TestJoinTransferCarriesFloors(t *testing.T) {
	r := rig(t, 4)
	g, _ := newGroup(t, r, SemiActive, []int{0, 1, 2})
	l := newLedger()
	fault.CrashAt(r.eng, r.net, 2, vtime.Time(500*us), vtime.Time(100*ms))
	for s := uint64(1); s <= 8; s++ {
		if s != 4 { // op 4 failed fast; no attempt landed
			submitAt(r, g, l, vtime.Duration(s)*ms, s, min(s-1, 3))
		}
	}
	submitAt(r, g, l, 60*ms, 9, 8)
	r.eng.Run(vtime.Time(150 * ms))
	if len(r.mem.Transfers) != 1 || r.mem.Transfers[0].To != 2 {
		t.Fatalf("transfers %+v, want the rejoin's to n2", r.mem.Transfers)
	}
	donor, joiner := g.Machine(0), g.Machine(2)
	if f := joiner.floor(kvTag(1)); f != 8 {
		t.Fatalf("joiner holds floor %d, want the donor's 8", f)
	}
	if !maps.Equal(joiner.seen, donor.seen) || len(joiner.seen) != 1 {
		t.Fatalf("joiner's table %v, donor's %v: want both holding op 9 alone", joiner.seen, donor.seen)
	}

	applied := joiner.Applied
	submitAt(r, g, l, 151*ms, 4, 3)
	r.eng.Run(vtime.Time(200 * ms))
	if joiner.Applied != applied || len(l.applied[4]) != 0 {
		t.Fatalf("retired op 4 applied at %v (joiner %d -> %d)", l.applied[4], applied, joiner.Applied)
	}
}

// TestPassiveJournalCompacts: the primary's journal keeps the entries
// the floors retire until at least half of it is dead; the next
// remember then copies the live ones to a fresh array under a fresh
// epoch, and the next checkpoint leaves every backup holding that short
// journal and the primary's table.
func TestPassiveJournalCompacts(t *testing.T) {
	r := rig(t, 4)
	g, _ := newGroup(t, r, Passive, []int{0, 1, 2})
	g.cfg.CheckpointEvery = 1 << 20 // checkpoints only where the test takes them
	sm := g.Machine(0)
	apply := func(seq, floor uint64) {
		g.applyOne(0, sm, &op{id: seq, cmd: int64(seq), tag: kvTag(seq), floor: floor})
	}
	const n = 2 * compactAt
	for s := uint64(1); s <= n; s++ {
		apply(s, 0)
	}
	epoch := sm.epoch
	// Op n+1 retires the first n/2-1 ops: fewer than half are dead.
	apply(n+1, n/2-1)
	if sm.epoch != epoch || len(sm.journal) != n+1 || len(sm.seen) != n/2+2 {
		t.Fatalf("epoch %d -> %d, journal %d, table %d: want no compaction with fewer than half dead",
			epoch, sm.epoch, len(sm.journal), len(sm.seen))
	}
	// Op n+2 retires the first n/2+1: more than half of the n+1 are dead.
	apply(n+2, n/2+1)
	if sm.epoch == epoch || !sm.owns || len(sm.journal) != len(sm.seen) || len(sm.seen) != n/2+1 {
		t.Fatalf("epoch %d -> %d (owns %v), journal %d, table %d: want a compacted journal of the %d live entries",
			epoch, sm.epoch, sm.owns, len(sm.journal), len(sm.seen), n/2+1)
	}
	for i, e := range sm.journal {
		if want := uint64(n/2 + 2 + i); e.Tag != kvTag(want) {
			t.Fatalf("compacted journal entry %d is %+v, want op %d: live entries in apply order", i, e.Tag, want)
		}
	}

	g.checkpoint(0)
	r.eng.Run(r.eng.Now().Add(ms))
	for _, b := range []int{1, 2} {
		bm := g.Machine(b)
		if bm.epoch != sm.epoch || len(bm.journal) != len(sm.journal) || !maps.Equal(bm.seen, sm.seen) {
			t.Fatalf("backup n%d: epoch %d, journal %d, table %d; primary %d, %d, %d",
				b, bm.epoch, len(bm.journal), len(bm.seen), sm.epoch, len(sm.journal), len(sm.seen))
		}
	}
}

// floorWriter is one writer of the randomized floor schedule: its floor
// is the prefix of its seqs the group has answered or it gave up on (an
// op unanswered after 30 ms fails fast).
type floorWriter struct {
	id      uint64
	next    uint64
	floor   uint64
	replied map[uint64]bool
}

type floorOp struct {
	w   *floorWriter
	seq uint64
	chk func(node int)
}

func (o floorOp) Applied(node int, _ int64) { o.chk(node) }

func (o floorOp) Replied(int64, bool) { o.w.retire(o.seq) }

// retire marks seq answered or given up, and advances the floor.
func (w *floorWriter) retire(seq uint64) {
	w.replied[seq] = true
	for w.replied[w.floor+1] {
		w.floor++
	}
}

// TestFloorsKeepTableAndJournalInStep drives seeded schedules of
// floored writes — fresh ops, late copies of earlier ones, crashes and
// partitions — over a passive and a semi-active group, and after every
// apply, checkpoint delivery and transfer holds each replica to the
// floors it keeps: no entry in its table lies at or below its writer's
// floor, and a passive table is exactly its journal's live entries.
func TestFloorsKeepTableAndJournalInStep(t *testing.T) {
	for _, style := range []Style{Passive, SemiActive} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", style, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				r := rig(t, 4)
				g, _ := newGroup(t, r, style, []int{0, 1, 2})
				checks := 0
				check := func(node int, what string) {
					checks++
					sm := g.Machine(node)
					for tag := range sm.seen {
						if sm.retired(tag) {
							t.Fatalf("after %s at n%d: table holds %v at or below floor %d", what, node, tag, sm.floor(tag))
						}
					}
					if style != Passive {
						return
					}
					live := map[ClientSeq]int64{}
					for _, e := range sm.journal {
						if !sm.retired(e.Tag) {
							live[e.Tag] = e.Result
						}
					}
					if !maps.Equal(live, sm.seen) {
						t.Fatalf("after %s at n%d: table %d entries, journal's live %d (journal %d)",
							what, node, len(sm.seen), len(live), len(sm.journal))
					}
				}
				for _, node := range g.cfg.Replicas {
					r.net.Bind(node, g.ckptPort, func(m *netsim.Message) {
						g.handleCheckpoint(node, m)
						check(node, "checkpoint")
					})
				}
				r.mem.RegisterState("repl."+g.cfg.Name, func(int, int) any { return nil }, func(node int, _ any) {
					check(node, "transfer")
				})
				const episodes, episode = 4, 250 * ms
				for e := 0; e < episodes; e++ {
					at := vtime.Time(vtime.Duration(e)*episode + 20*ms + vtime.Duration(rng.Intn(30_000))*us)
					back := at.Add(60*ms + vtime.Duration(rng.Intn(40_000))*us)
					victim := rng.Intn(3)
					if rng.Intn(2) == 0 {
						fault.CrashAt(r.eng, r.net, victim, at, back)
					} else {
						fault.PartitionAt(r.eng, r.net, at, 0, []int{victim}, []int{3, (victim + 1) % 3, (victim + 2) % 3})
						fault.HealAt(r.eng, r.net, back)
					}
				}
				writers := []*floorWriter{{id: 3}, {id: 4}, {id: 5}}
				for _, w := range writers {
					w.replied = map[uint64]bool{}
				}
				for at := vtime.Duration(0); at < episodes*episode; at += 200*us + vtime.Duration(rng.Intn(600))*us {
					w := writers[rng.Intn(len(writers))]
					late := rng.Intn(5) == 0
					r.eng.At(vtime.Time(at), eventq.ClassApp, func() {
						seq := w.next + 1
						if late && w.next > 0 {
							seq = 1 + uint64(rng.Int63n(int64(w.next)))
						} else {
							w.next++
							r.eng.After(30*ms, eventq.ClassApp, func() { w.retire(seq) })
						}
						g.SubmitOwned(3, []BatchItem{{Cmd: int64(w.id<<20 | seq), Tag: Tag(TagKV, w.id, seq), Floor: w.floor,
							Owner: floorOp{w, seq, func(node int) { check(node, "apply") }}}})
					})
				}
				r.eng.Run(vtime.Time(episodes*episode + 50*ms))
				if g.Duplicates == 0 || len(r.mem.Transfers) == 0 || checks < 1000 {
					t.Fatalf("schedule too tame: %d duplicates, %d transfers, %d checks", g.Duplicates, len(r.mem.Transfers), checks)
				}
				if sm := g.Machine(g.Primary()); style == Passive && len(sm.journal) > 2*compactAt {
					t.Fatalf("the primary's journal lists %d entries, %d live: it never compacted", len(sm.journal), len(sm.seen))
				}
				for _, w := range writers {
					if w.floor != w.next {
						t.Fatalf("writer %d's floor stalled at %d of %d", w.id, w.floor, w.next)
					}
				}
			})
		}
	}
}
