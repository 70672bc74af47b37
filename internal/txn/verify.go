package txn

import (
	"fmt"
	"maps"
	"slices"

	"hades/internal/shard"
	"hades/internal/vtime"
)

// Verify audits the atomic-commitment contract of a run against the
// shard groups' authoritative apply logs:
//
//   - all-or-nothing: every committed transaction's writes appear in
//     all owning shards' authoritative histories, each exactly once,
//     with the committed command;
//   - no partial writes: every aborted transaction's writes appear in
//     no shard's authoritative history;
//   - deadline discipline: no participant ever released a lock after
//     its transaction's deadline, and no lock belonging to an
//     expired-deadline transaction is still held.
//
// The authoritative history is the same hole-free-replica log the
// data-plane verifier uses (shard.Verify), so a plane that passes both
// checks has single-key linearizability AND multi-key atomicity on one
// set of histories: hs, which indexes the plane router's groups.
func Verify(p *Plane, hs *shard.Histories) error {
	groups := p.router.Groups()
	hist := make([]*shard.History, len(groups))
	for i := range groups {
		h, err := hs.Of(i)
		if err != nil {
			return fmt.Errorf("txn: %w", err)
		}
		hist[i] = h
	}
	for _, c := range p.clients {
		for _, rec := range c.Done {
			for _, op := range rec.Ops {
				if op.Kind != OpWrite {
					continue
				}
				a, n := hist[op.Shard].Find(rec.ID.Client, op.Seq)
				switch rec.Status {
				case StatusCommitted:
					if n == 0 {
						return fmt.Errorf("txn: committed %s write %q (seq %d) missing from group %q history (torn transaction)",
							rec.ID, op.Key, op.Seq, groups[op.Shard].Name())
					}
					if n > 1 {
						return fmt.Errorf("txn: committed %s write %q (seq %d) applied %d times in group %q (exactly-once violated)",
							rec.ID, op.Key, op.Seq, n, groups[op.Shard].Name())
					}
					if a.Cmd != op.Cmd || a.Key != op.Key {
						return fmt.Errorf("txn: committed %s write %q: history holds (key %q, cmd %d), client wrote (key %q, cmd %d)",
							rec.ID, op.Key, a.Key, a.Cmd, op.Key, op.Cmd)
					}
				case StatusAborted:
					if n != 0 {
						return fmt.Errorf("txn: aborted %s write %q (seq %d) present in group %q history (partial write leaked)",
							rec.ID, op.Key, op.Seq, groups[op.Shard].Name())
					}
				}
			}
		}
	}
	now := p.eng.Now()
	for _, pa := range p.parts {
		if pa.Stats.HeldPastDeadline > 0 {
			return fmt.Errorf("txn: shard %d released %d lock set(s) after their transaction deadlines", pa.shard, pa.Stats.HeldPastDeadline)
		}
		if err := pa.lockPastDeadline(now); err != nil {
			return err
		}
	}
	return nil
}

// lockPastDeadline reports a lock still held at now for a transaction
// whose deadline passed. Keys are scanned in sorted order, so of
// several such locks the report names the smallest key.
func (pa *Participant) lockPastDeadline(now vtime.Time) error {
	for _, key := range slices.Sorted(maps.Keys(pa.locks)) {
		id := pa.locks[key]
		if pr := pa.preps[id]; pr != nil && now.After(pr.deadline) {
			return fmt.Errorf("txn: shard %d still holds lock %q for %s past its deadline %s", pa.shard, key, id, pr.deadline)
		}
	}
	return nil
}
