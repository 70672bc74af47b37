package txn

import (
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
	if id.Key() != "txn:t6.3" {
		t.Fatalf("Key %q", id.Key())
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
	ct := &coordTxn{commit: true, parts: []*partState{{shard: 0}, {shard: 1, acked: true}}}
	if ct.replyable() {
		t.Fatal("commit replyable with an un-acked participant")
	}
	ct.parts[0].acked = true
	if !ct.replyable() {
		t.Fatal("fully acked commit not replyable")
	}
	abort := &coordTxn{commit: false, parts: []*partState{{shard: 0}}}
	if !abort.replyable() {
		t.Fatal("abort not immediately replyable")
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
