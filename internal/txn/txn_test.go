package txn

import (
	"strings"
	"testing"

	"hades/internal/session"
	"hades/internal/vtime"
)

// The protocol end-to-end behaviour (commit/abort under crash and
// partition faults, deadline discipline, atomicity verification) is
// exercised through the cluster layer in internal/cluster/txn_test.go
// and the bank-transfer scenario test; these tests pin the pure parts.

func TestIDStrings(t *testing.T) {
	id := ID{Client: 6, Num: 3}
	if id.String() != "t6.3" {
		t.Fatalf("String %q", id.String())
	}
	if k := string(id.key(nil)); k != "txn:t6.3" {
		t.Fatalf("Key %q", k)
	}
	if l := loopLabel("prep", id, 2); l != "prep.t6.3.s2" {
		t.Fatalf("loop label %q", l)
	}
	// The session calls' owners name them with the same text.
	ct := &coordTxn{id: id, parts: []partState{{shard: 0}, {shard: 2}}}
	for _, c := range []struct {
		owner session.Owner
		n     uint64
		want  string
	}{
		{submission{&Txn{id: id}}, 0, "t6.3"},
		{ct, loop(1, loopPrepare), "prep.t6.3.s2"},
		{ct, loop(0, loopDecision), "dec.t6.3.s0"},
		{&prep{pa: &Participant{shard: 2}, id: id}, 0, "query.t6.3.s2"},
	} {
		if got := c.owner.Label(c.n); got != c.want {
			t.Errorf("%T label %q, want %q", c.owner, got, c.want)
		}
	}
}

func TestStatusStrings(t *testing.T) {
	for s, want := range map[Status]string{
		StatusPending:   "pending",
		StatusCommitted: "committed",
		StatusAborted:   "aborted",
	} {
		if got := s.String(); got != want {
			t.Fatalf("Status(%d) = %q, want %q", s, got, want)
		}
	}
}

// TestPrepKeysDeduplicated: a transaction reading and writing the same
// key locks it once (the lock set is the distinct keys, op order).
func TestPrepKeysDeduplicated(t *testing.T) {
	keys := distinctKeys([]Op{
		{Kind: OpRead, Key: "a"},
		{Kind: OpWrite, Key: "b"},
		{Kind: OpWrite, Key: "a"},
	})
	if len(keys) != 2 || keys[0] != "a" || keys[1] != "b" {
		t.Fatalf("keys %v, want [a b]", keys)
	}
}

// TestCoordTxnReplyable: commits are releasable to the client only
// once every participant acked; aborts immediately.
func TestCoordTxnReplyable(t *testing.T) {
	ct := &coordTxn{commit: true, parts: []partState{{shard: 0}, {shard: 1, acked: true}}}
	if ct.replyable() {
		t.Fatal("commit replyable with an un-acked participant")
	}
	ct.parts[0].acked = true
	if !ct.replyable() {
		t.Fatal("fully acked commit not replyable")
	}
	abort := &coordTxn{commit: false, parts: []partState{{shard: 0}}}
	if !abort.replyable() {
		t.Fatal("abort not immediately replyable")
	}
}

// TestSplitByShard: a coordinator's parts come in ascending shard
// order, each with its ops in their original order.
func TestSplitByShard(t *testing.T) {
	parts := splitByShard([]Op{
		{Key: "a", Shard: 2}, {Key: "b", Shard: 0}, {Key: "c", Shard: 2}, {Key: "d", Shard: 1}, {Key: "e", Shard: 0},
	})
	want := map[int]string{0: "be", 1: "d", 2: "ac"}
	if len(parts) != len(want) {
		t.Fatalf("%d parts, want %d", len(parts), len(want))
	}
	for i, ps := range parts {
		var keys strings.Builder
		for _, op := range ps.ops {
			keys.WriteString(op.Key)
		}
		if ps.shard != i || keys.String() != want[i] {
			t.Fatalf("part %d: shard %d ops %q, want shard %d ops %q", i, ps.shard, keys.String(), i, want[i])
		}
	}
}

// TestLockPastDeadlineNamesSmallestKey: of two locks held past their
// transactions' deadlines, the audit names the smaller key, whatever
// order the lock table iterates in.
func TestLockPastDeadlineNamesSmallestKey(t *testing.T) {
	late, early := ID{Client: 1, Num: 1}, ID{Client: 1, Num: 2}
	pa := &Participant{
		shard: 3,
		locks: map[string]ID{"k9": late, "k2": early, "k5": ID{Client: 1, Num: 3}},
		preps: map[ID]*prep{
			late:  {id: late, deadline: vtime.Time(10 * vtime.Millisecond)},
			early: {id: early, deadline: vtime.Time(5 * vtime.Millisecond)},
		},
	}
	for i := 0; i < 20; i++ {
		err := pa.lockPastDeadline(vtime.Time(20 * vtime.Millisecond))
		if err == nil || !strings.Contains(err.Error(), `lock "k2"`) {
			t.Fatalf("audit: %v, want the lock on k2", err)
		}
	}
	if err := pa.lockPastDeadline(vtime.Time(5 * vtime.Millisecond)); err != nil {
		t.Fatalf("no deadline has passed, audit: %v", err)
	}
}

func TestDefaultsSane(t *testing.T) {
	if DefaultDeadline <= session.DefaultTimeout {
		t.Fatal("default deadline does not cover even one retry timeout")
	}
	if loopbackDelay >= vtime.Millisecond {
		t.Fatal("loopback dispatch should be well under a link delay")
	}
}
