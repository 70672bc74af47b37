package shard

import (
	"cmp"
	"fmt"
	"slices"

	"hades/internal/replication"
)

// Verify checks the sharded data plane's safety contract after a run,
// against each shard group's authoritative history:
//
//   - exactly-once: every acknowledged request appears in the owning
//     group's authoritative history exactly once, with the result the
//     client was given;
//   - per-key order: within the authoritative history, each client's
//     requests on each key apply in submission (sequence) order —
//     with single-writer keys this is per-key linearizability, since
//     acks only ever come from the quorum-holding primary lineage.
//
// The authoritative history is a hole-free replica's log — one never
// down and never view-excluded (semi-active followers execute
// everything, so any replica that stayed in every view holds the full
// lineage). hs indexes r's groups; Verify requires semi-active shards:
// under passive replication acknowledged work since the last checkpoint
// is lost on failover by design, so the exactly-once clause cannot
// hold.
func Verify(r *Router, clients []*Client, hs *Histories) error {
	for _, g := range r.Groups() {
		if s := g.Replication().Style(); s != replication.SemiActive {
			return fmt.Errorf("shard: verify needs semi-active shards (group %q is %s)", g.Name(), s)
		}
	}
	hist := make([]*History, len(r.Groups()))
	type keyClient struct {
		key    string
		client int
	}
	for i, g := range r.Groups() {
		h, err := hs.Of(i)
		if err != nil {
			return fmt.Errorf("shard: %w", err)
		}
		hist[i] = h
		// lastSeq[at[(key, client)]] is the seq the pair last applied.
		at := make(map[keyClient]int)
		var lastSeq []uint64
		for _, a := range h.Log {
			k := keyClient{key: a.Key, client: a.Client}
			j, ok := at[k]
			if !ok {
				j = len(lastSeq)
				at[k] = j
				lastSeq = append(lastSeq, 0)
			}
			if last := lastSeq[j]; a.Seq <= last {
				return fmt.Errorf("shard: group %q key %q: client n%d seq %d applied after seq %d (per-key order violated)",
					g.Name(), a.Key, a.Client, a.Seq, last)
			}
			lastSeq[j] = a.Seq
		}
	}
	runs := make([]int, len(hist)) // the client's run in each history
	for _, c := range clients {
		node := c.Node()
		for i, h := range hist {
			runs[i] = h.run(node)
		}
		for _, ack := range c.Acks {
			idx := r.ShardFor(ack.Key)
			a, n := hist[idx].find(runs[idx], ack.Seq)
			switch {
			case n == 0:
				return fmt.Errorf("shard: acked request n%d#%d (key %q) missing from group %q history (acknowledged write lost)",
					node, ack.Seq, ack.Key, r.Groups()[idx].Name())
			case n > 1:
				return fmt.Errorf("shard: acked request n%d#%d (key %q) applied %d times in group %q (exactly-once violated)",
					node, ack.Seq, ack.Key, n, r.Groups()[idx].Name())
			}
			if a.Result != ack.Result || a.Key != ack.Key {
				return fmt.Errorf("shard: acked request n%d#%d: client saw (key %q, result %d), history holds (key %q, result %d)",
					node, ack.Seq, ack.Key, ack.Result, a.Key, a.Result)
			}
		}
	}
	return nil
}

// History is one group's authoritative history — the apply log of a
// hole-free replica, read in place from the group's shared history —
// indexed by request, with no map entry per request. Both run audits
// (Verify here and txn.Verify) read it, so they judge one set of
// histories.
type History struct {
	// Log is the authoritative apply log, in apply order. Its entries
	// are the group's own: read them, do not change them (its capacity
	// is clipped, so an append copies).
	Log []Applied
	// reqs holds every apply's (seq, position) pair, grouped by client
	// and ordered by seq, then position; runs[clients[c]] indexes client
	// c's share. Memory is in the log's length, whatever the seqs.
	clients map[int]int
	runs    []reqRun
	reqs    []seqPos
}

// reqRun is one client's share of History.reqs and a directory into
// it: the client's seqs, min to max, fall into buckets of 1<<shift
// seqs, no more buckets than the client has applies, and bucket b's
// applies are reqs[dir[b]:dir[b+1]]. A lookup reads one bucket.
type reqRun struct {
	client   int
	n        int // applies
	min, max uint64
	shift    uint
	dir      []int
}

// seqPos places one apply of a client's request seq at pos in the log.
type seqPos struct {
	seq uint64
	pos int
}

// history indexes the group's authoritative apply log. It fails when
// no replica's log is hole-free.
func (g *Group) history() (*History, error) {
	if testHookIndex != nil {
		testHookIndex(g)
	}
	node, ok := g.AuthoritativeNode()
	if !ok {
		return nil, fmt.Errorf("group %q has no hole-free replica to verify against", g.Name())
	}
	return newHistory(g.log(g.replica(node))), nil
}

// testHookIndex, when set, sees every history index made.
var testHookIndex func(g *Group)

// Histories holds a router's groups' histories, each indexed when an
// audit first asks for it, so the audits of one verdict (Verify and
// txn.Verify) share one index per group.
type Histories struct {
	groups []*Group
	hist   []*History
	errs   []error
}

// NewHistories returns r's groups' histories, none indexed yet. They
// are the histories as of the first read: make new ones after the run
// moves on.
func NewHistories(r *Router) *Histories {
	n := len(r.Groups())
	return &Histories{groups: r.Groups(), hist: make([]*History, n), errs: make([]error, n)}
}

// Of returns group i's history, or why it has none, indexing it on the
// first call.
func (hs *Histories) Of(i int) (*History, error) {
	if hs.hist[i] == nil && hs.errs[i] == nil {
		hs.hist[i], hs.errs[i] = hs.groups[i].history()
	}
	return hs.hist[i], hs.errs[i]
}

// newHistory indexes log with a counting sort into each client's
// buckets, in linear time: no comparison sort runs but inside a bucket.
func newHistory(log []Applied) *History {
	h := &History{Log: log, clients: make(map[int]int), reqs: make([]seqPos, len(log))}
	// Each apply's client as an index into runs, and each client's
	// count and seq range. Consecutive applies mostly share a client,
	// so the last one is checked before the map.
	ks := make([]int32, len(log))
	k := -1
	for i, a := range log {
		if k < 0 || h.runs[k].client != a.Client {
			var ok bool
			if k, ok = h.clients[a.Client]; !ok {
				k = len(h.runs)
				h.clients[a.Client] = k
				h.runs = append(h.runs, reqRun{client: a.Client, min: a.Seq, max: a.Seq})
			}
		}
		ks[i] = int32(k)
		r := &h.runs[k]
		r.n++
		r.min, r.max = min(r.min, a.Seq), max(r.max, a.Seq)
	}
	// Size each directory, and count each bucket b's applies into
	// dir[b+2] (the last bucket's count is never needed).
	lo := 0
	for k := range h.runs {
		r := &h.runs[k]
		for (r.max-r.min)>>r.shift >= uint64(r.n) {
			r.shift++
		}
		r.dir = make([]int, (r.max-r.min)>>r.shift+2)
		r.dir[0], r.dir[1] = lo, lo
		lo += r.n
	}
	for i, a := range log {
		r := &h.runs[ks[i]]
		if b := (a.Seq-r.min)>>r.shift + 2; b < uint64(len(r.dir)) {
			r.dir[b]++
		}
	}
	// Prefix sums leave dir[b+1] at bucket b's start. Placing each apply
	// there, in log order, moves it to the bucket's end: bucket b+1's
	// start. dir[0] already holds bucket 0's.
	for k := range h.runs {
		dir := h.runs[k].dir
		for b := 2; b < len(dir); b++ {
			dir[b] += dir[b-1]
		}
	}
	for i, a := range log {
		r := &h.runs[ks[i]]
		b := (a.Seq-r.min)>>r.shift + 1
		h.reqs[r.dir[b]] = seqPos{seq: a.Seq, pos: i}
		r.dir[b]++
	}
	for k := range h.runs {
		dir := h.runs[k].dir
		for b := 0; b+1 < len(dir); b++ {
			if bucket := h.reqs[dir[b]:dir[b+1]]; len(bucket) > 1 {
				slices.SortFunc(bucket, func(x, y seqPos) int {
					if c := cmp.Compare(x.seq, y.seq); c != 0 {
						return c
					}
					return cmp.Compare(x.pos, y.pos)
				})
			}
		}
	}
	return h
}

// Find returns how many times the history applied request (client,
// seq), and the last such apply.
func (h *History) Find(client int, seq uint64) (Applied, int) {
	return h.find(h.run(client), seq)
}

// run returns client's index in runs, -1 if it never applied.
func (h *History) run(client int) int {
	if k, ok := h.clients[client]; ok {
		return k
	}
	return -1
}

// find is Find within run k.
func (h *History) find(k int, seq uint64) (Applied, int) {
	if k < 0 {
		return Applied{}, 0
	}
	r := &h.runs[k]
	if seq < r.min || seq > r.max {
		return Applied{}, 0
	}
	b := (seq - r.min) >> r.shift
	bucket := h.reqs[r.dir[b]:r.dir[b+1]]
	// A binary search for the first apply of seq, written out: through
	// slices.BinarySearchFunc's callback, Verify reads 10 % slower.
	i, j := 0, len(bucket)
	for i < j {
		if m := int(uint(i+j) >> 1); bucket[m].seq < seq {
			i = m + 1
		} else {
			j = m
		}
	}
	for j = i; j < len(bucket) && bucket[j].seq == seq; j++ {
	}
	if j == i {
		return Applied{}, 0
	}
	return h.Log[bucket[j-1].pos], j - i
}
