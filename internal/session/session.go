// Package session is the single calibrated session discipline of the
// data plane: every client-facing submission path (keyed requests,
// transaction begins, the coordinator's PREPARE/decision/query loops,
// reliable pub/sub publishes and late-joiner catch-up) drives its
// attempts through one Engine instead of re-implementing timeout/retry,
// redirect-following, stale-view handling and park-and-resubmit per
// layer.
//
// The discipline is the PR 4 queue policy, factored out:
//
//   - an attempt is sent and a reply timeout armed; a timeout consumes
//     one retry and re-sends;
//   - an exhausted budget parks the call (or abandons it, on a
//     fail-fast engine) — parked calls resubmit with a fresh budget on
//     any installed membership view and on partition heals (ownership
//     can have changed), plus a deep deterministic backoff so nothing
//     is stranded when the trigger raced the park itself;
//   - redirects re-dispatch immediately (a new attempt, fresh timeout)
//     without consuming the retry budget;
//   - attempt counters invalidate armed timers and let adapters discard
//     failure verdicts of superseded attempts, while a late OK is
//     always acceptable (the command landed);
//   - a call ends when its owner calls Finish, at the one place its
//     answer lands (or when fail-fast abandons it): the engine never
//     asks whether a call is done.
//
// A call fires its owner, in the style of simkern.Owner and
// eventq.Handler: Start takes the record the call serves and a payload
// naming which of its loops this is, and the engine calls the owner's
// Send(n, attempt) for every attempt, its Label(n) only for a monitor
// record the log keeps, its Trace(n, i) for the traces that keep the
// call's retry history (Traced) and its Failed(n) when a fail-fast
// engine abandons it (Failer). The call itself is a slot the engine
// recycles once the call ends; the owner holds a Handle, generation-
// checked like an eventq.Handle and passed back to the Engine's Finish,
// Redirect and Fail, so a handle whose call ended is inert even once
// its slot serves another call. A call answered on its first attempt,
// or retried, allocates nothing: no label, no closure, no Call.
// Go(Spec) is the closure adapter over the same path, for callers that
// hold a *Call.
//
// The package also provides the throughput machinery layered on the
// same calls: Batcher coalesces per-key operations bound for the same
// shard into batched submissions (max-batch-size plus a virtual-time
// flush interval, so batching composes with deadlines instead of
// weakening them) and pipelines K in-flight batches per shard with
// deterministic completion ordering.
package session

import (
	"hades/internal/eventq"
	"hades/internal/membership"
	"hades/internal/monitor"
	"hades/internal/netsim"
	"hades/internal/simkern"
	"hades/internal/trace"
	"hades/internal/vtime"
)

// The one retry calibration of the data plane, selected by a zero
// Spec.Timeout / Spec.MaxRetries and used by every Start: the timeout
// comfortably covers one request round trip (two link crossings, the
// receive paths and the execution cost), and the budget spans one
// uncontended view-change bound, so a plain crash failover is ridden
// out by retries alone and only genuine partition windows park calls.
const (
	DefaultTimeout    = 5 * vtime.Millisecond
	DefaultMaxRetries = 8
)

// backoffFactor scales the retry timeout into the deep re-probe delay
// of a parked call (the PR 4 calibration: view installs and heals are
// the prompt triggers; the backoff is the safety net).
const backoffFactor = 5

// Counters is the one observer of the state machine: every call started
// with a pointer to it counts its timeouts, retries, parks,
// resubmissions, redirects and explicit failure verdicts there.
// Adapters embed it in their statistics.
type Counters struct {
	Redirects   int // Engine.Redirect: server redirects + router republications
	Timeouts    int // reply timeouts observed
	Retries     int // re-dispatches after a failed attempt
	Blocked     int // Engine.Fail: explicit verdicts (stale-view rejections)
	Queued      int // park events (queue policy)
	Resubmitted int // dispatches of parked calls after a view/heal/backoff
}

// Owner is the record a call serves. The engine fires it with the
// payload n the call was started with, so one record can own several
// loops (a transaction's PREPARE and decision loop per participant).
type Owner interface {
	// Send fires one attempt (the owner's wire send).
	Send(n uint64, attempt int)
	// Label names the call in a monitor record; the engine asks only
	// when the log keeps the record.
	Label(n uint64) string
}

// Traced is an Owner whose call carries causal traces (one per op of a
// batched submission): the engine records the call's retries, parks,
// resubmissions and redirects as instants on each, so a trace keeps its
// full attempt history instead of just the final latency. Trace returns
// the i-th trace and true, or false past the last; a generation-checked
// Ref, because a call can outlive its traces.
type Traced interface {
	Trace(n uint64, i int) (trace.Ref, bool)
}

// Failer is the Owner of a call on a fail-fast engine (NewFailFast):
// when the call's retries run out it is abandoned and Failed(n) runs.
type Failer interface {
	Failed(n uint64)
}

// Spec parameterises one call of the closure adapter Go.
type Spec struct {
	// Label names the call in monitor records.
	Label string
	// Timeout is the per-attempt reply timeout (0 selects
	// DefaultTimeout).
	Timeout vtime.Duration
	// MaxRetries bounds consecutive timeouts before the call parks
	// (0 selects DefaultMaxRetries).
	MaxRetries int
	// Send fires one attempt.
	Send func(attempt int)
}

// callState tracks one call through the engine.
type callState uint8

const (
	csInflight callState = iota + 1
	csParked
	csDone // finished by its owner, or abandoned under fail-fast
)

// Call is one retried submission owned by an Engine: a slot Start
// recycles, or the record Go allocates.
type Call struct {
	e          *Engine
	o          Owner
	n          uint64
	counters   *Counters
	timeout    vtime.Duration
	maxRetries int
	node       int
	// attempt bumps at every dispatch and park, invalidating the armed
	// timer. It keeps running across the calls a slot serves, so a
	// stale timer never matches the slot's next call.
	attempt int
	retries int
	// slot is a Start slot's index; gen moves on when the call ends, so
	// a Handle of an ended call is inert. A slot's first call is
	// generation 1: the zero Handle names none.
	slot, gen uint32
	state     callState
	pooled    bool // a Start slot, returned to the free list once swept
}

// specCall is Go's record: the Call and the Spec that owns it, one
// allocation.
type specCall struct {
	Call
	s Spec
}

func (sc *specCall) Send(_ uint64, attempt int) { sc.s.Send(attempt) }
func (sc *specCall) Label(uint64) string        { return sc.s.Label }

// Handle names one call Start began: its slot and the generation it
// was started at, eight bytes, so a record that outlives its calls
// keeps no more than a pointer's worth of them. It names a call only
// to the Engine that returned it. The zero Handle names no call, and
// the Engine's methods on a Handle whose call ended do nothing, even
// once the slot serves another call.
type Handle struct{ slot, gen uint32 }

// live returns h's call while it has not ended.
func (e *Engine) live(h Handle) *Call {
	if int(h.slot) >= len(e.slots) {
		return nil
	}
	if c := e.slots[h.slot]; c.gen == h.gen {
		return c
	}
	return nil
}

// Attempt returns the current attempt counter of h's call (echoed on
// the wire so failure verdicts of superseded attempts are discarded);
// 0 once the call ended.
func (e *Engine) Attempt(h Handle) int {
	if c := e.live(h); c != nil {
		return c.attempt
	}
	return 0
}

// Inflight reports whether an attempt of h's call is outstanding.
func (e *Engine) Inflight(h Handle) bool {
	c := e.live(h)
	return c != nil && c.state == csInflight
}

// Finish retires h's call (its reply landed): its armed timer and any
// later poke send nothing. Idempotent; late duplicate replies are the
// owner's to discard.
func (e *Engine) Finish(h Handle) {
	if c := e.live(h); c != nil {
		c.end()
	}
}

// Redirect re-dispatches h's call immediately (a new attempt, fresh
// timeout) without consuming the retry budget — the redirect-following
// path for server redirects and router republications. detail feeds
// the monitor record.
func (e *Engine) Redirect(h Handle, detail string) {
	if c := e.live(h); c != nil {
		c.redirect(detail)
	}
}

// Fail reports an explicit failure verdict for the current attempt of
// h's call (a stale-view rejection): it consumes the retry budget
// exactly as a timeout does.
func (e *Engine) Fail(h Handle, why string) {
	if c := e.live(h); c != nil && c.state == csInflight {
		c.counters.Blocked++
		e.fail(c, why)
	}
}

// Finish retires a call Go started. Idempotent, and a no-op on a nil
// call.
func (c *Call) Finish() {
	if c != nil && c.state != csDone {
		c.end()
	}
}

// end retires the call and lets go of its owner.
func (c *Call) end() {
	c.state = csDone
	c.gen++
	c.o, c.counters = nil, nil
}

// Engine runs the session discipline for one adapter (a client or a
// protocol role): it owns the live calls and resubmits parked ones on
// view installs, partition heals and the deep backoff.
type Engine struct {
	eng   *simkern.Engine
	calls []*Call
	// compactAt is the len(calls) at which a start next sweeps retired
	// calls out: twice the live set found by the last sweep plus slack,
	// so the sweep is amortised O(1) per call and the slice tracks the
	// live set even on a run that never pokes.
	compactAt int
	// slots holds every Start slot by index; free the swept ones, for
	// the next calls.
	slots []*Call
	free  []*Call
	// failFast abandons a call whose retries ran out instead of parking
	// it.
	failFast bool
	// timeout and maxRetries are Start's calibration: the defaults,
	// which only tests change.
	timeout    vtime.Duration
	maxRetries int
	// uncounted absorbs the counts of calls that name no Counters.
	uncounted Counters
}

// New builds an engine on the simulation kernel. Wire its resubmission
// triggers with WireViews and WireHeals.
func New(eng *simkern.Engine) *Engine {
	return &Engine{eng: eng, timeout: DefaultTimeout, maxRetries: DefaultMaxRetries}
}

// NewFailFast builds an engine whose calls are abandoned, not parked,
// when their retries run out: the engine ends the call and runs its
// owner's Failed(n), so every owner started on it is a Failer.
func NewFailFast(eng *simkern.Engine) *Engine {
	e := New(eng)
	e.failFast = true
	return e
}

// WireViews pokes the engine on every installed view of the membership
// service (failover and merge views both republish ownership).
func (e *Engine) WireViews(mem *membership.Service) {
	mem.OnChange(func(membership.View) { e.poke("view") })
}

// WireHeals pokes the engine when a network partition heals.
func (e *Engine) WireHeals(net *netsim.Network) {
	net.OnPartitionChange(func(partitioned bool) {
		if !partitioned {
			e.poke("heal")
		}
	})
}

// Start starts one retried call for owner o with payload n, at the one
// calibration: the first attempt fires before Start returns. Monitor
// records are attributed to node; the call's counts go to cs (nil:
// none). Warm, it allocates nothing: the call takes a recycled slot.
func (e *Engine) Start(o Owner, n uint64, node int, cs *Counters) Handle {
	e.compact()
	c := e.take()
	if cs == nil {
		cs = &e.uncounted
	}
	c.o, c.n, c.node, c.counters = o, n, node, cs
	c.timeout, c.maxRetries = e.timeout, e.maxRetries
	h := Handle{c.slot, c.gen}
	e.start(c)
	return h
}

// Go starts one retried call from a Spec, through the same path as
// Start: the first attempt fires immediately. It allocates its Call,
// which the Spec owns.
func (e *Engine) Go(s Spec) *Call {
	e.compact()
	sc := &specCall{s: s}
	c := &sc.Call
	c.e, c.o, c.counters = e, sc, &e.uncounted
	c.timeout, c.maxRetries = s.Timeout, s.MaxRetries
	if c.timeout <= 0 {
		c.timeout = DefaultTimeout
	}
	if c.maxRetries <= 0 {
		c.maxRetries = DefaultMaxRetries
	}
	e.start(c)
	return c
}

// take returns a swept slot, or a new one.
func (e *Engine) take() *Call {
	if k := len(e.free); k > 0 {
		c := e.free[k-1]
		e.free = e.free[:k-1]
		return c
	}
	c := &Call{e: e, slot: uint32(len(e.slots)), gen: 1, pooled: true}
	e.slots = append(e.slots, c)
	return c
}

// start lists the call and fires its first attempt.
func (e *Engine) start(c *Call) {
	c.retries = 0
	e.calls = append(e.calls, c)
	e.dispatch(c)
}

// compact sweeps retired calls out once the list reached compactAt.
func (e *Engine) compact() {
	if len(e.calls) >= e.compactAt {
		e.sweep(func(c *Call) bool { return c.state != csDone })
	}
}

// sweep keeps the calls keep accepts and lets go of the rest — their
// slots are cleared so a retired adapter call and the closures it holds
// become collectable, and retired Start slots go to the free list.
// Calls that keep itself starts (a resumed send answered synchronously)
// queue behind the survivors.
func (e *Engine) sweep(keep func(*Call) bool) {
	calls := e.calls
	e.calls = nil
	live := calls[:0]
	for _, c := range calls {
		if keep(c) {
			live = append(live, c)
		} else if c.pooled {
			e.free = append(e.free, c)
		}
	}
	clear(calls[len(live):])
	e.calls = append(live, e.calls...)
	e.compactAt = 2*len(e.calls) + 64
}

// dispatch fires one attempt and arms its reply timeout.
func (e *Engine) dispatch(c *Call) {
	c.state = csInflight
	c.attempt++
	attempt := c.attempt // Send may supersede it synchronously
	c.o.Send(c.n, attempt)
	e.eng.Arm(e.eng.Now().Add(c.timeout), eventq.ClassApp, replyTimeout{c}, uint64(attempt))
}

// record logs one state-machine event about c, naming the call only
// when the log keeps the record.
func (e *Engine) record(c *Call, kind monitor.Kind, format string, args ...any) {
	label := ""
	if e.eng.Log().Keeps(kind) {
		label = c.o.Label(c.n)
	}
	e.eng.Recordf(kind, c.node, label, format, args...)
}

// instant records a point event on every trace riding the call.
func (c *Call) instant(format string, args ...any) {
	t, ok := c.o.(Traced)
	if !ok {
		return
	}
	for i := 0; ; i++ {
		tr, more := t.Trace(c.n, i)
		if !more {
			return
		}
		tr.Instant(format, args...)
	}
}

// replyTimeout is a call's timer: a reply timeout while an attempt is
// in flight, the deep backoff while it is parked. The payload is the
// attempt the timer was armed for; every dispatch and every park
// bumps the attempt, so a superseded timer is inert, and an attempt
// number is never both in flight and parked.
type replyTimeout struct{ c *Call }

func (t replyTimeout) Fire(attempt uint64) {
	c := t.c
	if c.attempt != int(attempt) {
		return // answered, re-dispatched, resumed or recycled in the meantime
	}
	switch c.state {
	case csInflight:
		c.counters.Timeouts++
		c.e.fail(c, "timeout")
	case csParked:
		c.e.resume(c, "backoff")
	}
}

// fail handles one failed attempt (timeout or an explicit verdict such
// as a stale-view rejection): retry while budget remains, then apply
// the policy — park under the queue policy, abandon under fail-fast.
func (e *Engine) fail(c *Call, why string) {
	c.retries++
	if c.retries <= c.maxRetries {
		c.counters.Retries++
		e.record(c, monitor.KindRetry, "%s retry %d/%d", why, c.retries, c.maxRetries)
		c.instant("%s retry %d/%d", why, c.retries, c.maxRetries)
		e.dispatch(c)
		return
	}
	if e.failFast {
		o, n := c.o, c.n
		c.end()
		o.(Failer).Failed(n)
		return
	}
	c.state = csParked
	c.attempt++
	c.counters.Queued++
	e.record(c, monitor.KindRetry, "%s: parked after %d retries", why, c.retries)
	c.instant("parked after %d retries (%s)", c.retries, why)
	// Backoff safety net: view installs and heals resubmit parked calls
	// promptly, but a call can park after the last such trigger (its
	// retry budget outlasting the merge) — re-probe at a deep backoff so
	// nothing is stranded.
	e.eng.Arm(e.eng.Now().Add(backoffFactor*c.timeout), eventq.ClassApp, replyTimeout{c}, uint64(c.attempt))
}

// resume re-dispatches one parked call with a fresh retry budget.
func (e *Engine) resume(c *Call, why string) {
	c.counters.Resubmitted++
	e.record(c, monitor.KindResubmit, "after %s", why)
	c.instant("resubmit after %s", why)
	c.retries = 0
	e.dispatch(c)
}

// redirect re-dispatches an in-flight call without consuming its
// retry budget.
func (c *Call) redirect(detail string) {
	if c.state != csInflight {
		return
	}
	c.counters.Redirects++
	c.e.record(c, monitor.KindRedirect, "%s", detail)
	c.instant("redirect: %s", detail)
	c.e.dispatch(c)
}

// poke resubmits every parked call — fired on any installed view and on
// partition heals — and compacts retired calls on the way, so the scan
// stays proportional to the live set.
func (e *Engine) poke(why string) {
	e.sweep(func(c *Call) bool {
		if c.state == csDone {
			return false
		}
		if c.state == csParked {
			e.resume(c, why)
		}
		return true
	})
}

// Live returns the number of unretired calls (test hook).
func (e *Engine) Live() int {
	n := 0
	for _, c := range e.calls {
		if c.state != csDone {
			n++
		}
	}
	return n
}
