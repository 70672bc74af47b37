// Package trace is the causal observability plane: every client op and
// transaction gets a Trace at submission, layers open and close Spans
// at their boundaries (per-key queue, batcher wait, wire transit,
// replication round, lock wait, 2PC phases), and finished traces feed
// HDR-style latency histograms plus a Chrome trace-event exporter.
//
// Everything here is passive with respect to the simulation: the
// tracer never schedules events and never consumes the engine's seeded
// random stream (sampling hashes the trace ID instead), so a run with
// tracing enabled, disabled, or sampled at any rate is byte-identical
// in behaviour. All methods are nil-receiver safe so instrumentation
// call sites stay unconditional even when tracing is off.
package trace

import (
	"fmt"
	"sort"
	"strconv"

	"hades/internal/vtime"
)

// Layer classifies span time for the per-layer latency breakdown.
// Numeric order is attribution priority: when spans overlap, an
// instant of root time is charged to the highest active layer (a lock
// wait inside a prepare round counts as lock time, not wire time).
type Layer uint8

const (
	// LayerOther is root time no child span covers (and the layer of
	// structural spans that should not claim breakdown time).
	LayerOther Layer = iota
	// LayerWire is time inside an RPC: session call in flight,
	// including retries and redirects.
	LayerWire
	// LayerQueue is client-side queueing: per-key FIFO, txn admission.
	LayerQueue
	// LayerBatch is batcher time: coalescing wait plus pipeline stalls.
	LayerBatch
	// LayerReplicate is a replicated round: shard apply, decision log.
	LayerReplicate
	// LayerLock is participant lock-wait time.
	LayerLock

	numLayers
)

var layerNames = [numLayers]string{"other", "wire", "queue", "batch", "replicate", "lock"}

func (l Layer) String() string {
	if int(l) < len(layerNames) {
		return layerNames[l]
	}
	return "other"
}

// LayerTimes is a per-layer duration breakdown. For a finished trace
// the six fields partition the root span exactly: every instant is
// charged to precisely one layer.
type LayerTimes struct {
	Queue     vtime.Duration `json:"queue"`
	Batch     vtime.Duration `json:"batch"`
	Wire      vtime.Duration `json:"wire"`
	Replicate vtime.Duration `json:"replicate"`
	Lock      vtime.Duration `json:"lock"`
	Other     vtime.Duration `json:"other"`
}

func (lt *LayerTimes) add(l Layer, d vtime.Duration) {
	switch l {
	case LayerQueue:
		lt.Queue += d
	case LayerBatch:
		lt.Batch += d
	case LayerWire:
		lt.Wire += d
	case LayerReplicate:
		lt.Replicate += d
	case LayerLock:
		lt.Lock += d
	default:
		lt.Other += d
	}
}

func (lt *LayerTimes) addAll(o LayerTimes) {
	lt.Queue += o.Queue
	lt.Batch += o.Batch
	lt.Wire += o.Wire
	lt.Replicate += o.Replicate
	lt.Lock += o.Lock
	lt.Other += o.Other
}

// Total sums all layers; for one trace this equals the root duration.
func (lt LayerTimes) Total() vtime.Duration {
	return lt.Queue + lt.Batch + lt.Wire + lt.Replicate + lt.Lock + lt.Other
}

// span is one timed interval, stored by value inside its trace: span
// handles are (trace, index) pairs, so the storage holds no pointers
// beyond the name and survives slice growth without invalidating
// anything — every op pays to allocate and GC-scan this, so it stays
// small and flat.
type span struct {
	name  string
	start vtime.Time
	end   vtime.Time
	layer Layer
	open  bool
}

// SpanRef is a value handle to one timed interval of a trace. The zero
// SpanRef is a valid no-op handle (mirroring the nil-safety of Trace),
// and every SpanRef is generation-checked: once its trace finishes
// unretained and is recycled for a later op, a stale handle silently
// no-ops instead of touching the new trace. Spans are closed by End,
// or force-closed when the trace finishes; End after finish is a
// no-op.
type SpanRef struct {
	tr  *Trace
	id  uint64
	idx int32
}

func (s SpanRef) live() bool { return s.tr != nil && s.tr.id == s.id }

// End closes the span at the tracer's current virtual time.
func (s SpanRef) End() {
	if !s.live() {
		return
	}
	sp := &s.tr.spans[s.idx]
	if !sp.open {
		return
	}
	sp.open = false
	sp.end = s.tr.tc.now()
	if sp.layer != LayerOther {
		s.tr.advance(sp.end)
		s.tr.active[sp.layer]--
	}
}

// Ref is a generation-checked trace handle for state whose lifetime
// can exceed the trace's: wire envelopes, server-side pending tables,
// 2PC coordinator and participant records. A trace that finishes
// neither sampled nor violating is recycled by a later Begin; a stale
// Ref then silently no-ops instead of corrupting the new trace. The
// zero Ref is a valid disabled handle.
type Ref struct {
	tr *Trace
	id uint64
}

// Ref returns a generation-checked handle to the trace (the zero Ref
// for a nil trace).
func (tr *Trace) Ref() Ref {
	if tr == nil {
		return Ref{}
	}
	return Ref{tr: tr, id: tr.id}
}

func (r Ref) live() bool { return r.tr != nil && r.tr.id == r.id }

// Span opens a child of the root span (a no-op handle if the ref is
// stale or the trace finished).
func (r Ref) Span(name string, layer Layer) SpanRef {
	if !r.live() {
		return SpanRef{}
	}
	return r.tr.Span(name, layer)
}

// Instant records a point event on the trace unless the ref is stale.
func (r Ref) Instant(format string, args ...any) {
	if r.live() {
		r.tr.instant(format, args...)
	}
}

// Violate marks the trace violating unless the ref is stale. A late
// violation on a finished-but-not-yet-recycled trace still promotes it
// into the retained set; once the trace has been recycled, the moment
// to attribute the violation to it is gone and the call no-ops.
func (r Ref) Violate(format string, args ...any) {
	if r.live() {
		r.tr.Violate(format, args...)
	}
}

// Mark is a timestamped point event on a trace (retry, redirect,
// violation).
type Mark struct {
	At   vtime.Time
	Name string
}

// Trace is the span tree of one client op or transaction.
//
// The first spanArena spans (including the root) live inside the
// Trace itself rather than as individual heap objects: tracing sits
// on every op's hot path, and the arena keeps a typical KV or txn
// trace at one allocation total.
type Trace struct {
	tc        *Tracer
	id        uint64
	class     string
	label     string
	shard     int
	sampled   bool
	violating bool
	finished  bool
	retained  bool
	pooled    bool
	poolIdx   int32
	spans     []span // spans[0] is the root; backed by arena until it grows
	marks     []Mark
	viols     []Mark
	layers    LayerTimes
	// Incremental layer accounting: active counts per layer plus the
	// last accounting point. Virtual time is monotone, so charging the
	// interval since lastAt to the top active layer at every span open,
	// span close and finish yields exactly the sweep a sort-based pass
	// would compute, without sorting anything at finish time.
	active [numLayers]int16
	lastAt vtime.Time
	arena  [spanArena]span
	// Deferred label parts (SetLabelKey): formatted on first Label read.
	lkey  string
	lseq  uint64
	lnode int32
}

// spanArena covers the common KV trace exactly (root + queue + batch
// + wire + replicate + slack); the rarer, deeper cross-shard txn
// traces spill the whole span slice to one heap reallocation (handles
// are indices, so growth invalidates nothing). Sized down rather than
// up because every op pays to zero the arena.
const spanArena = 6

// resolvedLabel returns the caller-set label (a txn ID, a key), formatting a
// deferred SetLabelKey label on first use.
func (tr *Trace) resolvedLabel() string {
	if tr == nil {
		return ""
	}
	if tr.label == "" && tr.lkey != "" {
		tr.label = tr.lkey + "#" + strconv.FormatUint(tr.lseq, 10) + "@n" + strconv.Itoa(int(tr.lnode))
	}
	return tr.label
}

// SetLabelKey attaches a keyed-op identity ("key#seq@nNode") without
// formatting it: labels are only read when a trace is exported, and
// building the string eagerly costs allocations on every op.
func (tr *Trace) SetLabelKey(key string, seq uint64, node int) {
	if tr == nil {
		return
	}
	tr.lkey, tr.lseq, tr.lnode = key, seq, int32(node)
}

// SetLabel attaches a human-readable identity to the trace.
func (tr *Trace) SetLabel(label string) {
	if tr == nil {
		return
	}
	tr.label = label
}

// SetClass rewrites the op class; outcome-dependent classes (commit vs
// abort) are fixed just before Finish.
func (tr *Trace) SetClass(class string) {
	if tr == nil {
		return
	}
	tr.class = class
}

// Span opens a child of the root span.
func (tr *Trace) Span(name string, layer Layer) SpanRef {
	if tr == nil || tr.finished {
		return SpanRef{}
	}
	return tr.newSpan(name, layer)
}

func (tr *Trace) newSpan(name string, layer Layer) SpanRef {
	idx := int32(len(tr.spans))
	tr.spans = append(tr.spans, span{
		name:  name,
		layer: layer,
		start: tr.tc.now(),
		end:   -1,
		open:  true,
	})
	if layer != LayerOther {
		tr.advance(tr.spans[idx].start)
		tr.active[layer]++
	}
	return SpanRef{tr: tr, id: tr.id, idx: idx}
}

// advance charges the interval since the last accounting point to the
// highest-priority active layer (LayerOther when none is active) and
// moves the accounting point to now.
func (tr *Trace) advance(now vtime.Time) {
	if now <= tr.lastAt {
		return
	}
	top := LayerOther
	for l := numLayers - 1; l > LayerOther; l-- {
		if tr.active[l] > 0 {
			top = l
			break
		}
	}
	tr.layers.add(top, now.Sub(tr.lastAt))
	tr.lastAt = now
}

// instant records a point event (retry, redirect, park) on the trace.
func (tr *Trace) instant(format string, args ...any) {
	if tr == nil || tr.finished {
		return
	}
	tr.marks = append(tr.marks, Mark{At: tr.tc.now(), Name: fmt.Sprintf(format, args...)})
}

// Violate marks the trace violating (abort, failure, omission): it is
// retained with its full span tree regardless of the sample rate. A
// violation arriving after Finish (an in-flight duplicate dropped
// after the reply) still promotes the trace into the retained set.
func (tr *Trace) Violate(format string, args ...any) {
	if tr == nil {
		return
	}
	tr.viols = append(tr.viols, Mark{At: tr.tc.now(), Name: fmt.Sprintf(format, args...)})
	if tr.violating {
		return
	}
	tr.violating = true
	if tr.finished {
		if tr.pooled {
			tr.tc.unpool(tr)
		}
		tr.tc.violated++
		tr.tc.retain(tr)
	}
}

// duration returns the end-to-end latency (valid after Finish).
func (tr *Trace) duration() vtime.Duration {
	if tr == nil {
		return 0
	}
	return tr.spans[0].end.Sub(tr.spans[0].start)
}

// Finish closes the trace at the current virtual time: open spans are
// force-closed, the root is renamed to the final class, the per-layer
// breakdown is sealed (it accumulates incrementally as spans open and
// close), histograms update (always), and the trace is retained iff
// sampled or violating.
func (tr *Trace) Finish() {
	if tr == nil || tr.finished {
		return
	}
	tr.finished = true
	now := tr.tc.now()
	tr.advance(now)
	for i := range tr.spans {
		if s := &tr.spans[i]; s.open {
			s.open = false
			s.end = now
		}
	}
	root := &tr.spans[0]
	root.name = tr.class
	if root.end < root.start {
		root.end = root.start
	}
	tr.tc.finishTrace(tr)
}

// Carrier is implemented by wire envelopes that carry trace references
// so the network can link message loss back to the causal history: a
// dropped carrier marks every referenced trace violating, which forces
// retention regardless of sample rate. Refs rather than *Trace so a
// drop of a stale duplicate (its trace already finished and recycled)
// is a safe no-op.
type Carrier interface {
	TraceRefs() []Ref
}

// Scope keys an aggregation bucket: op class × shard (-1 = all shards).
type Scope struct {
	Class string
	Shard int
}

type scopeAgg struct {
	hist   *Hist
	layers LayerTimes
	total  vtime.Duration
	count  int
}

// ScopeStats is one aggregated latency row: percentiles of end-to-end
// latency plus the summed per-layer breakdown for a class × shard.
type ScopeStats struct {
	Class string
	Shard int // -1 aggregates all shards
	Count int
	P50   vtime.Duration
	P99   vtime.Duration
	P999  vtime.Duration
	Max   vtime.Duration
	// Layers sums the per-trace breakdowns; Layers.Total() == Total.
	Layers LayerTimes
	// Total sums end-to-end latency over Count traces.
	Total vtime.Duration
}

// Mean returns the average end-to-end latency.
func (s ScopeStats) Mean() vtime.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Total / vtime.Duration(s.Count)
}

// Tracer mints traces, samples them deterministically, and aggregates
// finished traces into per-scope histograms. A nil Tracer is a valid
// disabled tracer: Begin returns nil and every downstream call no-ops.
type Tracer struct {
	seed     uint64
	rate     float64
	now      func() vtime.Time
	nextID   uint64
	started  int
	finished int
	violated int
	retained []*Trace
	// pool holds finished unretained traces for reuse: at sub-1.0
	// sample rates most traces die at finish, and recycling them keeps
	// the per-op tracing cost allocation-free in steady state. Stale
	// handles into recycled traces are rejected by generation checks
	// (SpanRef/Ref carry the trace id they were minted for).
	pool   []*Trace
	scopes map[Scope]*scopeAgg
	// lastScope/lastAgg memoize the hot aggregation bucket: a client
	// finishes runs of same-class, same-shard ops, so most observes hit
	// the scope of the previous one and skip the map.
	lastScope Scope
	lastAgg   *scopeAgg
}

// New builds a tracer over a virtual clock. rate is the fraction of
// traces retained with full span trees (violating traces are always
// retained); histograms observe every finished trace regardless.
func New(seed int64, rate float64, now func() vtime.Time) *Tracer {
	return &Tracer{
		seed:   uint64(seed),
		rate:   rate,
		now:    now,
		scopes: make(map[Scope]*scopeAgg),
	}
}

// splitmix64 is the sampling hash: cheap, stateless, and independent
// of the engine's seeded random stream, so sampling never perturbs the
// simulation.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (t *Tracer) sampleID(id uint64) bool {
	if t.rate >= 1 {
		return true
	}
	if t.rate <= 0 {
		return false
	}
	h := splitmix64(id ^ t.seed)
	return float64(h>>11)/float64(uint64(1)<<53) < t.rate
}

// Begin mints a trace for one op, opening its root span now. Returns
// nil on a nil tracer.
//
// The returned *Trace is owned by the caller until Finish. After
// Finish, a trace that is neither sampled nor violating may be
// recycled by a later Begin — state that outlives the op must hold
// generation-checked handles (Ref, SpanRef), not the *Trace itself.
func (t *Tracer) Begin(class string, shard int) *Trace {
	if t == nil {
		return nil
	}
	t.nextID++
	t.started++
	var tr *Trace
	if n := len(t.pool); n > 0 {
		tr = t.pool[n-1]
		t.pool = t.pool[:n-1]
		tr.reset(t.nextID, class, shard, t.now())
	} else {
		tr = &Trace{tc: t, id: t.nextID, class: class, shard: shard, lastAt: t.now()}
		tr.spans = tr.arena[:0]
	}
	tr.sampled = t.sampleID(tr.id)
	tr.newSpan(class, LayerOther)
	return tr
}

// reset rewinds a pooled trace for reuse. Slices keep their backing
// storage (a spilled span slice stays spilled), so a recycled trace
// records spans and marks without allocating.
func (tr *Trace) reset(id uint64, class string, shard int, now vtime.Time) {
	tr.id = id
	tr.class = class
	tr.label = ""
	tr.shard = shard
	tr.sampled, tr.violating, tr.finished, tr.retained, tr.pooled = false, false, false, false, false
	tr.spans = tr.spans[:0]
	tr.marks = tr.marks[:0]
	tr.viols = tr.viols[:0]
	tr.layers = LayerTimes{}
	tr.active = [numLayers]int16{}
	tr.lastAt = now
	tr.lkey, tr.lseq, tr.lnode = "", 0, 0
}

func (t *Tracer) unpool(tr *Trace) {
	last := t.pool[len(t.pool)-1]
	t.pool[tr.poolIdx] = last
	last.poolIdx = tr.poolIdx
	t.pool = t.pool[:len(t.pool)-1]
	tr.pooled = false
}

func (t *Tracer) retain(tr *Trace) {
	if tr.retained {
		return
	}
	tr.retained = true
	t.retained = append(t.retained, tr)
}

func (t *Tracer) finishTrace(tr *Trace) {
	t.finished++
	if tr.violating {
		t.violated++
	}
	d := tr.duration()
	// Only the per-shard scope is updated on the hot path; the shard=-1
	// all-shards rows are synthesized by merging in Stats.
	t.observe(Scope{Class: tr.class, Shard: tr.shard}, d, tr.layers)
	if tr.sampled || tr.violating {
		t.retain(tr)
		return
	}
	// Neither sampled nor violating: the trace's numbers are in the
	// histograms and its span tree is dead — recycle it. A late
	// violation can still pull it back out of the pool.
	tr.pooled = true
	tr.poolIdx = int32(len(t.pool))
	t.pool = append(t.pool, tr)
}

func (t *Tracer) observe(sc Scope, d vtime.Duration, lt LayerTimes) {
	agg := t.lastAgg
	if agg == nil || t.lastScope != sc {
		agg = t.scopes[sc]
		if agg == nil {
			agg = &scopeAgg{hist: NewHist()}
			t.scopes[sc] = agg
		}
		t.lastScope, t.lastAgg = sc, agg
	}
	agg.count++
	agg.total += d
	agg.layers.addAll(lt)
	agg.hist.Record(int64(d))
}

// Retained returns the retained traces in completion order (late
// violation promotions append at their violation time), which is
// deterministic for a seeded run.
func (t *Tracer) Retained() []*Trace {
	if t == nil {
		return nil
	}
	return t.retained
}

// Counts reports tracer totals: traces started, finished, retained
// with full span trees, and violating.
func (t *Tracer) Counts() (started, finished, retained, violating int) {
	if t == nil {
		return 0, 0, 0, 0
	}
	return t.started, t.finished, len(t.retained), t.violated
}

// Rate returns the configured sample rate.
func (t *Tracer) Rate() float64 {
	if t == nil {
		return 0
	}
	return t.rate
}

func statsRow(class string, shard int, agg *scopeAgg) ScopeStats {
	return ScopeStats{
		Class:  class,
		Shard:  shard,
		Count:  agg.count,
		P50:    vtime.Duration(agg.hist.Percentile(0.50)),
		P99:    vtime.Duration(agg.hist.Percentile(0.99)),
		P999:   vtime.Duration(agg.hist.Percentile(0.999)),
		Max:    vtime.Duration(agg.hist.Max()),
		Layers: agg.layers,
		Total:  agg.total,
	}
}

// Stats returns one aggregated row per (class, shard) scope plus a
// shard = -1 all-shards row per class (synthesized here by merging the
// per-shard aggregates, so the hot path pays one histogram update per
// trace), sorted by class then shard.
func (t *Tracer) Stats() []ScopeStats {
	if t == nil {
		return nil
	}
	out := make([]ScopeStats, 0, len(t.scopes)*2)
	classes := make(map[string]*scopeAgg)
	for sc, agg := range t.scopes {
		out = append(out, statsRow(sc.Class, sc.Shard, agg))
		all := classes[sc.Class]
		if all == nil {
			all = &scopeAgg{hist: NewHist()}
			classes[sc.Class] = all
		}
		all.count += agg.count
		all.total += agg.total
		all.layers.addAll(agg.layers)
		all.hist.merge(agg.hist)
	}
	for class, agg := range classes {
		out = append(out, statsRow(class, -1, agg))
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Class != out[j].Class {
			return out[i].Class < out[j].Class
		}
		return out[i].Shard < out[j].Shard
	})
	return out
}
