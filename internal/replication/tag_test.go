package replication

import "testing"

// TestTagSpacesDisjoint: no two (space, id) writers ever share a dedup
// key — every pair of spaces over the boundary ids, same seq — and a
// tag is never the zero ClientSeq, which means "untracked". The kv,
// txn-write and txn-decision layouts are pinned to the values those
// planes wrote before the namespace had an owner.
func TestTagSpacesDisjoint(t *testing.T) {
	ids := []uint64{0, 1, maxTagID}
	type writer struct {
		space TagSpace
		id    uint64
	}
	owner := make(map[ClientSeq]writer)
	for space := TagSpace(0); space < numTagSpaces; space++ {
		for _, id := range ids {
			tag := Tag(space, id, 7)
			if tag.Client == 0 || tag.Seq != 7 {
				t.Errorf("Tag(%d, %d, 7) = %+v", space, id, tag)
			}
			if prev, dup := owner[tag]; dup {
				t.Errorf("Tag(%d, %d) and Tag(%d, %d) are both %+v", prev.space, prev.id, space, id, tag)
			}
			owner[tag] = writer{space, id}
		}
	}
	for _, pin := range []struct {
		space TagSpace
		want  uint64 // Client for id 3
	}{
		{TagKV, 4},
		{TagTxnWrite, 1<<32 | 4},
		{TagTxnDecision, 1<<33 | 4},
	} {
		if got := Tag(pin.space, 3, 1).Client; got != pin.want {
			t.Errorf("space %d moved: Client %#x, want %#x", pin.space, got, pin.want)
		}
	}
}

// TestTagRejectsOverflow: an id past its space's 32 bits, or a space
// the table does not hold, panics instead of wrapping into a neighbour.
func TestTagRejectsOverflow(t *testing.T) {
	for _, tc := range []struct {
		name  string
		space TagSpace
		id    uint64
	}{
		{"id fills the low word", TagKV, maxTagID + 1},
		{"id carries into the prefix", TagTxnWrite, 1 << 32},
		{"negative int converted", TagPubSub, ^uint64(0)},
		{"unknown space", numTagSpaces, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("Tag(%d, %d) accepted", tc.space, tc.id)
				}
			}()
			Tag(tc.space, tc.id, 1)
		})
	}
}
