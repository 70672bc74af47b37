package metrics

// TopK is a space-saving heavy-hitters sketch over keys: bounded
// memory, every key whose true frequency exceeds 1/k of all touches is
// guaranteed present, and each entry carries the overestimation bound
// it was admitted with. Eviction is deterministic: the lowest-count
// entry, oldest admission first — same touch sequence, same sketch.
// A nil sketch (metrics disabled) no-ops.
type TopK struct {
	k       int
	byKey   map[string]*tkEntry
	entries []*tkEntry // admission order, for deterministic min scans
}

// tkEntry is one tracked key.
type tkEntry struct {
	key   string
	shard int
	count int64
	err   int64 // admission overestimate: true count >= count - err
}

func newTopK(k int) *TopK {
	return &TopK{k: k, byKey: make(map[string]*tkEntry, k)}
}

// Touch records one access to key on the given shard.
func (t *TopK) Touch(key string, shard int) {
	if t == nil {
		return
	}
	if e := t.byKey[key]; e != nil {
		e.count++
		e.shard = shard
		return
	}
	if len(t.entries) < t.k {
		e := &tkEntry{key: key, shard: shard, count: 1}
		t.byKey[key] = e
		t.entries = append(t.entries, e)
		return
	}
	// Space-saving eviction: replace the minimum-count entry, crediting
	// the newcomer with min+1 and recording min as its error bound.
	min := t.entries[0]
	for _, e := range t.entries[1:] {
		if e.count < min.count {
			min = e
		}
	}
	delete(t.byKey, min.key)
	t.byKey[key] = min
	min.key, min.shard, min.err, min.count = key, shard, min.count, min.count+1
}

// HotKey is one exported sketch entry.
type HotKey struct {
	Key   string `json:"key"`
	Shard int    `json:"shard"`
	Count int64  `json:"count"`
	Err   int64  `json:"err,omitempty"`
}

// hot returns the tracked keys, hottest first (count descending, key
// ascending on ties — deterministic).
func (t *TopK) hot() []HotKey {
	if t == nil {
		return nil
	}
	out := make([]HotKey, 0, len(t.entries))
	for _, e := range t.entries {
		out = append(out, HotKey{Key: e.key, Shard: e.shard, Count: e.count, Err: e.err})
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && less(out[j], out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// less orders hot keys: higher count first, then key.
func less(a, b HotKey) bool {
	if a.Count != b.Count {
		return a.Count > b.Count
	}
	return a.Key < b.Key
}
