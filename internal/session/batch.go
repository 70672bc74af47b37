package session

import (
	"sort"

	"hades/internal/eventq"
	"hades/internal/metrics"
	"hades/internal/monitor"
	"hades/internal/simkern"
	"hades/internal/vtime"
)

// DefaultFlushInterval is the virtual-time flush deadline applied when
// batching is on (MaxBatch > 1) but no interval is configured: short
// against the 5ms retry timeout and the 30ms transaction deadline, so
// batching amortizes per-request overhead without eating into either
// budget (the Kim & Kumar constraint — throughput mechanisms compose
// with the timing guarantees).
const DefaultFlushInterval = 250 * vtime.Microsecond

// Params are the session throughput knobs. The zero value is the
// legacy discipline: every op its own submission (MaxBatch 1) and no
// pipeline bound (one call per batch still serializes per key at the
// adapter, exactly as before).
type Params struct {
	// MaxBatch caps ops per batched submission; values < 2 disable
	// coalescing.
	MaxBatch int
	// FlushInterval bounds how long a non-full batch waits before
	// flushing; 0 means DefaultFlushInterval when batching is on.
	FlushInterval vtime.Duration
	// PipelineDepth caps in-flight batches per lane (shard); 0 means
	// unlimited.
	PipelineDepth int
}

// maxBatch returns the effective coalescing cap.
func (p Params) maxBatch() int {
	if p.MaxBatch < 1 {
		return 1
	}
	return p.MaxBatch
}

// flushInterval returns the effective flush deadline.
func (p Params) flushInterval() vtime.Duration {
	if p.FlushInterval > 0 {
		return p.FlushInterval
	}
	return DefaultFlushInterval
}

// batching reports whether coalescing is enabled.
func (p Params) batching() bool { return p.maxBatch() > 1 }

// BatchStats counts batcher activity for the Result tables.
type BatchStats struct {
	// Batches and Ops count emitted batches and the ops they carried.
	Batches uint64
	Ops     uint64
	// MaxBatchOps is the largest batch emitted.
	MaxBatchOps int
	// SizeHist histograms emitted batch sizes (size → count).
	SizeHist map[int]int
	// FullFlushes, TimerFlushes and Stalls classify flush causes: a
	// full batch, the flush-interval timer, and flushes deferred
	// because the lane's pipeline was at depth.
	FullFlushes  uint64
	TimerFlushes uint64
	Stalls       uint64
}

// record counts one emitted batch.
func (s *BatchStats) record(n int) {
	s.Batches++
	s.Ops += uint64(n)
	if n > s.MaxBatchOps {
		s.MaxBatchOps = n
	}
	if s.SizeHist == nil {
		s.SizeHist = make(map[int]int)
	}
	s.SizeHist[n]++
}

// HistString renders the size histogram ("1:42 4:7"), ascending sizes.
func (s BatchStats) HistString() string {
	if len(s.SizeHist) == 0 {
		return "-"
	}
	sizes := make([]int, 0, len(s.SizeHist))
	for n := range s.SizeHist {
		sizes = append(sizes, n)
	}
	sort.Ints(sizes)
	out := ""
	for i, n := range sizes {
		if i > 0 {
			out += " "
		}
		out += itoa(n) + ":" + itoa(s.SizeHist[n])
	}
	return out
}

// itoa is a minimal strconv.Itoa to keep the import set small.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// lane is one batching target (a shard): its accumulating ops, its
// pipeline occupancy, and the epoch guarding the armed flush timer.
// The lane is its own flush timer's handler, the epoch its payload.
type lane[T any] struct {
	b           *Batcher[T]
	name        string
	pending     []T
	inflight    int
	maxInflight int
	timerEpoch  uint64
	timerArmed  bool
}

// Batcher coalesces items per lane and pipelines their emission: at
// most MaxBatch items per emitted batch, flushed when full or when the
// virtual-time flush interval expires, with at most PipelineDepth
// batches in flight per lane. Completion order is the adapter's to
// keep deterministic (batches complete in reply order; replies are
// simulation events, so seeded runs reproduce).
type Batcher[T any] struct {
	eng    *simkern.Engine
	params Params
	// emit ships one flushed batch; the adapter calls Complete(lane)
	// when the batch retires to free its pipeline slot.
	emit  func(lane string, items []T)
	lanes map[string]*lane[T]
	// label/node attribute monitor records.
	label string
	node  int
	// EagerIdle switches the flush policy to group commit: an item
	// added while the lane has nothing in flight flushes immediately
	// (no timer wait — an idle log adds zero latency), and items
	// arriving while a round is in flight coalesce until the adapter
	// Completes that round. The flush timer stays armed as a crash
	// fallback and forces a flush past the pipeline depth rather than
	// waiting forever on a completion that may never come.
	EagerIdle bool
	Stats     BatchStats

	// mFill is the metrics plane's per-interval batch fill (nil-safe
	// when the plane is off); its session.stalls counter reads Stats.
	mFill *metrics.Hist
}

// NewBatcher builds a batcher over the simulation kernel. emit ships a
// flushed batch; the adapter must call Complete once per emitted batch.
func NewBatcher[T any](eng *simkern.Engine, params Params, label string, node int, emit func(lane string, items []T)) *Batcher[T] {
	b := &Batcher[T]{
		eng:    eng,
		params: params,
		emit:   emit,
		lanes:  make(map[string]*lane[T]),
		label:  label,
		node:   node,
		mFill:  eng.Metrics().HistUnit("session.batch.fill", "ops"),
	}
	eng.Metrics().CounterFunc("session.stalls", func() int64 { return int64(b.Stats.Stalls) })
	return b
}

// lane returns (creating) the named lane.
func (b *Batcher[T]) lane(name string) *lane[T] {
	l := b.lanes[name]
	if l == nil {
		l = &lane[T]{b: b, name: name}
		b.lanes[name] = l
	}
	return l
}

// Add enqueues one item on a lane. Unbatched (MaxBatch 1) items flush
// immediately; otherwise the lane flushes when full and a virtual-time
// timer bounds the wait of a partial batch.
func (b *Batcher[T]) Add(laneName string, item T) {
	l := b.lane(laneName)
	l.pending = append(l.pending, item)
	max := b.params.maxBatch()
	if b.EagerIdle {
		// Group-commit policy: flush at once when the lane is idle or
		// the batch is full; otherwise coalesce behind the in-flight
		// round, with the timer as the lost-completion fallback.
		if l.inflight == 0 || len(l.pending) >= max {
			b.flush(l, true, false)
			return
		}
		b.armFlushTimer(l)
		return
	}
	if max <= 1 || len(l.pending) >= max {
		b.flush(l, true, false)
		return
	}
	b.armFlushTimer(l)
}

// armFlushTimer arms the flush-interval timer for a lane with a
// partial batch (no-op when one is already armed).
func (b *Batcher[T]) armFlushTimer(l *lane[T]) {
	if l.timerArmed {
		return
	}
	l.timerArmed = true
	l.timerEpoch++
	b.eng.AfterTo(b.params.flushInterval(), eventq.ClassApp, l, l.timerEpoch)
}

// Fire is the lane's flush timer armed at epoch: a flush or a re-arm
// since then bumped the epoch and leaves it inert.
func (l *lane[T]) Fire(epoch uint64) {
	if l.timerEpoch != epoch || !l.timerArmed {
		return
	}
	l.timerArmed = false
	if len(l.pending) > 0 {
		// In eager mode the timer only fires when a completion is
		// overdue (a lost round), so it forces past the depth bound
		// instead of stalling behind it.
		l.b.flush(l, false, l.b.EagerIdle)
	}
}

// flush emits pending items in MaxBatch-sized batches while the lane
// has pipeline slots; leftover items wait for a completion or the
// timer. full records the flush cause; force bypasses the depth bound
// (the eager-idle fallback path).
func (b *Batcher[T]) flush(l *lane[T], full, force bool) {
	max := b.params.maxBatch()
	depth := b.params.PipelineDepth
	for len(l.pending) > 0 {
		if !force && depth > 0 && l.inflight >= depth {
			b.Stats.Stalls++
			b.eng.Recordf(monitor.KindPipeline, b.node, b.label,
				"%s stalled at depth %d (%d pending)", l.name, l.inflight, len(l.pending))
			b.armFlushTimer(l)
			return
		}
		n := len(l.pending)
		if n > max {
			n = max
		}
		batch := make([]T, n)
		copy(batch, l.pending)
		l.pending = append(l.pending[:0], l.pending[n:]...)
		l.inflight++
		if l.inflight > l.maxInflight {
			l.maxInflight = l.inflight
		}
		b.Stats.record(n)
		b.mFill.Observe(int64(n))
		cause := "timer"
		if full || n == max {
			cause = "full"
			b.Stats.FullFlushes++
		} else {
			b.Stats.TimerFlushes++
		}
		if b.params.batching() {
			b.eng.Recordf(monitor.KindBatchFlush, b.node, b.label,
				"%s flush %d ops (%s, depth %d)", l.name, n, cause, l.inflight)
		}
		b.emit(l.name, batch)
	}
	// Everything flushed: a pending timer has nothing to do.
	if l.timerArmed {
		l.timerArmed = false
		l.timerEpoch++
	}
}

// Complete retires one in-flight batch of a lane, freeing its pipeline
// slot and flushing any deferred items.
func (b *Batcher[T]) Complete(laneName string) {
	l := b.lane(laneName)
	if l.inflight > 0 {
		l.inflight--
	}
	if len(l.pending) > 0 {
		b.flush(l, true, false)
	}
}

// MaxInflight returns the deepest pipeline each lane reached,
// lane-name sorted iteration left to the caller.
func (b *Batcher[T]) MaxInflight() map[string]int {
	out := make(map[string]int, len(b.lanes))
	for name, l := range b.lanes {
		if l.maxInflight > 0 {
			out[name] = l.maxInflight
		}
	}
	return out
}
