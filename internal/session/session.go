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
//   - an exhausted budget parks the call (or fails it, under the
//     fail-fast option) — parked calls resubmit with a fresh budget on
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
// Spec.Timeout / Spec.MaxRetries: the timeout comfortably covers one
// request round trip (two link crossings, the receive paths and the
// execution cost), and the budget spans one uncontended view-change
// bound, so a plain crash failover is ridden out by retries alone and
// only genuine partition windows park calls.
const (
	DefaultTimeout    = 5 * vtime.Millisecond
	DefaultMaxRetries = 8
)

// backoffFactor scales the retry timeout into the deep re-probe delay
// of a parked call (the PR 4 calibration: view installs and heals are
// the prompt triggers; the backoff is the safety net).
const backoffFactor = 5

// Counters is the one observer of the state machine: every call whose
// Spec points at it counts its timeouts, retries, parks, resubmissions,
// redirects and explicit failure verdicts there. Adapters embed it in
// their statistics.
type Counters struct {
	Redirects   int // Call.Redirect: server redirects + router republications
	Timeouts    int // reply timeouts observed
	Retries     int // re-dispatches after a failed attempt
	Blocked     int // Call.Fail: explicit verdicts (stale-view rejections)
	Queued      int // park events (queue policy)
	Resubmitted int // dispatches of parked calls after a view/heal/backoff
}

// Spec parameterises one retried call. Send and the optional hooks are
// the adapter's: the engine owns the state machine, the adapter owns
// the wire format and its statistics.
type Spec struct {
	// Label names the call in monitor records.
	Label string
	// Node is the processor monitor records are attributed to.
	Node int
	// Timeout is the per-attempt reply timeout (0 selects
	// DefaultTimeout).
	Timeout vtime.Duration
	// MaxRetries bounds consecutive timeouts before the policy applies
	// (0 selects DefaultMaxRetries).
	MaxRetries int
	// FailFast abandons the call on exhaustion instead of parking it.
	FailFast bool
	// Send fires one attempt (the adapter's wire send).
	Send func(attempt int)
	// Counters, when set, receives the call's state-machine counts.
	Counters *Counters
	// OnFail, when set, runs when fail-fast abandons the call.
	OnFail func()
	// Traces are the causal traces riding this call (one per op in a
	// batched submission): the engine records retries, parks,
	// resubmissions and redirects as instants on each, so a trace keeps
	// its full attempt history instead of just the final latency.
	// Generation-checked refs, because a call can outlive its traces.
	Traces []trace.Ref
}

// instant records a point event on every trace riding the call.
func (s *Spec) instant(format string, args ...any) {
	for _, tr := range s.Traces {
		tr.Instant(format, args...)
	}
}

// callState tracks one call through the engine.
type callState uint8

const (
	csInflight callState = iota + 1
	csParked
	csDone // finished by its owner, or abandoned under fail-fast
)

// Call is one retried submission owned by an Engine.
type Call struct {
	e       *Engine
	s       Spec
	state   callState
	attempt int // bumping invalidates the armed timeout
	retries int
}

// Attempt returns the current attempt counter (echoed on the wire so
// failure verdicts of superseded attempts are discarded).
func (c *Call) Attempt() int { return c.attempt }

// Inflight reports whether an attempt is outstanding.
func (c *Call) Inflight() bool { return c.state == csInflight }

// finished reports whether the call retired.
func (c *Call) finished() bool { return c.state == csDone }

// Engine runs the session discipline for one adapter (a client or a
// protocol role): it owns the live calls and resubmits parked ones on
// view installs, partition heals and the deep backoff.
type Engine struct {
	eng   *simkern.Engine
	calls []*Call
	// compactAt is the len(calls) at which Go next sweeps retired calls
	// out: twice the live set found by the last sweep plus slack, so the
	// sweep is amortised O(1) per call and the slice tracks the live set
	// even on a run that never pokes.
	compactAt int
	// uncounted absorbs the counts of calls that name no Counters.
	uncounted Counters
}

// New builds an engine on the simulation kernel. Wire its resubmission
// triggers with WireViews and WireHeals.
func New(eng *simkern.Engine) *Engine { return &Engine{eng: eng} }

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

// Go starts one retried call: the first attempt fires immediately.
func (e *Engine) Go(s Spec) *Call {
	if s.Timeout <= 0 {
		s.Timeout = DefaultTimeout
	}
	if s.MaxRetries <= 0 {
		s.MaxRetries = DefaultMaxRetries
	}
	if s.Counters == nil {
		s.Counters = &e.uncounted
	}
	if len(e.calls) >= e.compactAt {
		e.sweep(func(c *Call) bool { return !c.finished() })
	}
	c := &Call{e: e, s: s}
	e.calls = append(e.calls, c)
	e.dispatch(c)
	return c
}

// sweep keeps the calls keep accepts and lets go of the rest — their
// slots are cleared so a retired call and the closures it holds become
// collectable. Calls that keep itself starts (a resumed send answered
// synchronously) queue behind the survivors.
func (e *Engine) sweep(keep func(*Call) bool) {
	calls := e.calls
	e.calls = nil
	live := calls[:0]
	for _, c := range calls {
		if keep(c) {
			live = append(live, c)
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
	c.s.Send(attempt)
	e.eng.Arm(e.eng.Now().Add(c.s.Timeout), eventq.ClassApp, replyTimeout{c}, uint64(attempt))
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
		return // answered, re-dispatched or resumed in the meantime
	}
	switch c.state {
	case csInflight:
		c.s.Counters.Timeouts++
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
	if c.retries <= c.s.MaxRetries {
		c.s.Counters.Retries++
		e.eng.Recordf(monitor.KindRetry, c.s.Node, c.s.Label, "%s retry %d/%d", why, c.retries, c.s.MaxRetries)
		c.s.instant("%s retry %d/%d", why, c.retries, c.s.MaxRetries)
		e.dispatch(c)
		return
	}
	if c.s.FailFast {
		c.state = csDone
		c.attempt++
		if c.s.OnFail != nil {
			c.s.OnFail()
		}
		return
	}
	c.state = csParked
	c.attempt++
	c.s.Counters.Queued++
	e.eng.Recordf(monitor.KindRetry, c.s.Node, c.s.Label, "%s: parked after %d retries", why, c.retries)
	c.s.instant("parked after %d retries (%s)", c.retries, why)
	// Backoff safety net: view installs and heals resubmit parked calls
	// promptly, but a call can park after the last such trigger (its
	// retry budget outlasting the merge) — re-probe at a deep backoff so
	// nothing is stranded.
	e.eng.Arm(e.eng.Now().Add(backoffFactor*c.s.Timeout), eventq.ClassApp, replyTimeout{c}, uint64(c.attempt))
}

// resume re-dispatches one parked call with a fresh retry budget.
func (e *Engine) resume(c *Call, why string) {
	c.s.Counters.Resubmitted++
	e.eng.Recordf(monitor.KindResubmit, c.s.Node, c.s.Label, "after %s", why)
	c.s.instant("resubmit after %s", why)
	c.retries = 0
	e.dispatch(c)
}

// Finish retires the call (its reply landed): its armed timer and any
// later poke send nothing. Idempotent, and a no-op on a nil call; late
// duplicate replies are the adapter's to discard.
func (c *Call) Finish() {
	if c != nil {
		c.state = csDone
	}
}

// Redirect re-dispatches the call immediately (a new attempt, fresh
// timeout) without consuming the retry budget — the redirect-following
// path for server redirects and router republications. detail feeds
// the monitor record.
func (c *Call) Redirect(detail string) {
	if c.finished() || c.state == csParked {
		return
	}
	c.s.Counters.Redirects++
	c.e.eng.Recordf(monitor.KindRedirect, c.s.Node, c.s.Label, "%s", detail)
	c.s.instant("redirect: %s", detail)
	c.e.dispatch(c)
}

// Fail reports an explicit failure verdict for the current attempt (a
// stale-view rejection): it consumes the retry budget exactly as a
// timeout does.
func (c *Call) Fail(why string) {
	if c.state != csInflight {
		return
	}
	c.s.Counters.Blocked++
	c.e.fail(c, why)
}

// poke resubmits every parked call — fired on any installed view and on
// partition heals — and compacts retired calls on the way, so the scan
// stays proportional to the live set.
func (e *Engine) poke(why string) {
	e.sweep(func(c *Call) bool {
		if c.finished() {
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
		if !c.finished() {
			n++
		}
	}
	return n
}
