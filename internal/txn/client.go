package txn

import (
	"fmt"
	"slices"

	"hades/internal/eventq"
	"hades/internal/metrics"
	"hades/internal/netsim"
	"hades/internal/session"
	"hades/internal/shard"
	"hades/internal/trace"
	"hades/internal/vtime"
)

// DefaultDeadline comfortably covers one fault-free two-phase commit
// round (two coordinator hops plus the prepare/vote/decision round
// trips) with slack for one crash-failover window.
const DefaultDeadline = 30 * vtime.Millisecond

// ClientParams parameterises one transaction client.
type ClientParams struct {
	// Node is the client's processor (one transaction client per node
	// and per data plane; it may not share a node with a request client
	// — the cluster layer enforces it).
	Node int
	// Deadline is the default relative transaction deadline used by
	// Begin (0 selects DefaultDeadline).
	Deadline vtime.Duration
}

// ClientStats counts one transaction client's outcomes.
type ClientStats struct {
	Begun     int
	Committed int
	Aborted   int
	// DeadlineAborts counts aborts caused by the deadline discipline —
	// a structured cause carried end-to-end from wherever it fired
	// (client queue, coordinator timer, participant lock wait).
	DeadlineAborts int
	session.Counters
	SumLatency vtime.Duration
	MaxLatency vtime.Duration
}

// AvgLatency returns the mean commit-call-to-outcome latency over
// decided transactions.
func (s ClientStats) AvgLatency() vtime.Duration {
	decided := s.Committed + s.Aborted
	if decided == 0 {
		return 0
	}
	return s.SumLatency / vtime.Duration(decided)
}

// Record is one decided transaction, kept for Verify.
type Record struct {
	ID        ID
	Ops       []Op
	Status    Status
	Reads     map[string]int64
	DecidedAt vtime.Time
}

// Txn is one transaction under construction or in flight. Build it
// with Read/Write, submit it with Commit; the outcome lands in the
// client's Done records (and OnDone, when set).
type Txn struct {
	c        *Client
	id       ID
	deadline vtime.Time
	ops      []Op
	status   Status
	// firstSeq is the first write number the transaction could take:
	// the client's next one when it began.
	firstSeq uint64

	committedCall bool
	submittedAt   vtime.Time
	target        int
	coordShard    int
	// call is the submission's session call (the shared retry
	// discipline; the zero Handle until dispatched).
	call session.Handle
	// trace is the transaction's causal trace; qspan and wspan time the
	// client-queue wait and the submission round trip.
	trace *trace.Trace
	qspan trace.SpanRef
	wspan trace.SpanRef

	// OnDone, when set, runs once the transaction is decided.
	OnDone func()
}

// queueDeadline is a transaction's client-queue deadline timer: one
// still queued behind the session when its deadline passes aborts
// without ever acquiring a lock.
type queueDeadline struct{ t *Txn }

func (q queueDeadline) Fire(uint64) {
	t, c := q.t, q.t.c
	if t.status == StatusPending && c.inflight != t {
		c.removeQueued(t)
		c.finish(t, false, "deadline passed in client queue", true, nil)
	}
}

// Read batches one keyed read; the value (the key's last committed
// write, 0 if none) is delivered with the commit outcome.
func (t *Txn) Read(key string) {
	if t.committedCall {
		panic("txn: Read after Commit")
	}
	t.ops = append(t.ops, Op{Kind: OpRead, Key: key})
}

// Client is the transaction session layer on one node: Begin/Read/
// Write/Commit batch keyed operations into deadline-carrying
// transactions submitted to the ring-chosen coordinator, with the
// data-plane retry discipline (timeout/retry, redirects, stale-view
// handling, park-and-resubmit after merge views) on the submission.
type Client struct {
	p *Plane
	c ClientParams

	nextTxn uint64
	nextSeq uint64
	// open lists the transactions begun and not yet decided, in Begin
	// order: the oldest bounds the floors every attempt carries.
	open []*Txn

	queue    []*Txn // commit FIFO: one transaction in flight at a time
	inflight *Txn

	// Stats counts outcomes; Done records decided transactions for
	// Verify.
	Stats ClientStats
	Done  []Record

	// mCommitLat is the per-interval commit-latency histogram
	// (nil-safe when the metrics plane is off; aborts excluded).
	mCommitLat *metrics.Hist
}

// NewClient builds a transaction client on params.Node and wires its
// reactive paths: coordinator responses and router republications
// (in-flight submissions redirect). Parked submissions resubmit
// through the plane's session engine (any new agreed view, partition
// heals).
func NewClient(p *Plane, params ClientParams) *Client {
	if params.Deadline <= 0 {
		params.Deadline = DefaultDeadline
	}
	c := &Client{p: p, c: params, mCommitLat: p.eng.Metrics().Hist("txn.commit.latency")}
	p.net.Bind(params.Node, p.respPort, c.handleResp)
	p.router.OnRepublish(c.redirectInflight)
	p.clients = append(p.clients, c)
	return c
}

// Node returns the client's processor.
func (c *Client) Node() int { return c.c.Node }

// Open returns how many transactions the client has begun and not
// yet seen decided.
func (c *Client) Open() int { return len(c.open) }

// Begin opens a transaction whose deadline is the client's default
// relative deadline from now: if it has not committed by then, it
// deterministically aborts — locks are never held past it.
func (c *Client) Begin() *Txn {
	c.nextTxn++
	c.Stats.Begun++
	t := &Txn{
		c:        c,
		id:       ID{Client: c.c.Node, Num: c.nextTxn},
		deadline: c.p.eng.Now().Add(c.c.Deadline),
		ops:      make([]Op, 0, transferOps),
		status:   StatusPending,
		firstSeq: c.nextSeq + 1,
	}
	c.open = append(c.open, t)
	return t
}

// floors returns the client's transaction and write floors: the
// numbers below its oldest open transaction's, or every number it has
// given out when none is open. A transaction, and a write, at or below
// them is decided, so the client sends none of them again.
func (c *Client) floors() (txnFloor, writeFloor uint64) {
	if len(c.open) == 0 {
		return c.nextTxn, c.nextSeq
	}
	return c.open[0].id.Num - 1, c.open[0].firstSeq - 1
}

// transferOps is the op count Begin makes room for: a Transfer's two
// reads and two writes.
const transferOps = 4

// Write batches one keyed write into the transaction, assigning its
// client-wide sequence number (its identity in the shard histories).
func (c *Client) Write(t *Txn, key string, cmd int64) {
	if t.committedCall {
		panic("txn: Write after Commit")
	}
	c.nextSeq++
	t.ops = append(t.ops, Op{Kind: OpWrite, Key: key, Cmd: cmd, Seq: c.nextSeq})
}

// Commit submits the transaction. Commits are a per-client session
// (FIFO): a later transaction waits for the earlier one's outcome, so
// one client's writes reach each key in sequence order. The outcome
// lands in Done (and t.OnDone).
func (c *Client) Commit(t *Txn) {
	if t.committedCall {
		panic("txn: Commit called twice")
	}
	if len(t.ops) == 0 {
		panic("txn: Commit of an empty transaction")
	}
	t.committedCall = true
	t.submittedAt = c.p.eng.Now()
	for i := range t.ops {
		t.ops[i].Shard = c.p.router.ShardFor(t.ops[i].Key)
	}
	t.coordShard = c.p.coordShard(t.id)
	t.trace = c.p.eng.Tracer().Begin("txn", t.coordShard)
	if t.trace != nil {
		t.trace.SetLabel(t.id.String())
	}
	t.qspan = t.trace.Span("queue.txn", trace.LayerQueue)
	c.queue = append(c.queue, t)
	// Deadline-aware admission at the client (queueDeadline).
	c.p.eng.Arm(t.deadline, eventq.ClassApp, queueDeadline{t}, 0)
	c.pump()
}

// pump dispatches the next queued transaction when none is in flight.
func (c *Client) pump() {
	if c.inflight != nil || len(c.queue) == 0 {
		return
	}
	t := c.queue[0]
	c.queue = slices.Delete(c.queue, 0, 1) // keeps the array for the next append
	c.inflight = t
	c.dispatch(t)
}

// removeQueued drops one transaction from the commit queue.
func (c *Client) removeQueued(t *Txn) {
	q := c.queue[:0]
	for _, x := range c.queue {
		if x != t {
			q = append(q, x)
		}
	}
	c.queue = q
}

// dispatch starts the submission's session call: attempts send the
// transaction at the coordinator group's current primary, with the
// shared retry discipline (timeout/retry, park-and-resubmit on view
// installs and heals — a transaction submission is never abandoned;
// the coordinator's deadline discipline decides it, and the outcome
// query is idempotent). The call retires in finish.
func (c *Client) dispatch(t *Txn) {
	t.qspan.End()
	t.wspan = t.trace.Span("rpc.txn", trace.LayerWire)
	t.call = c.p.sess.Start(submission{t}, 0, c.c.Node, &c.Stats.Counters)
}

// submission is a transaction as the owner of its session call.
type submission struct{ t *Txn }

// Send fires one attempt at the coordinator group's current primary.
func (s submission) Send(_ uint64, attempt int) {
	s.sendTo(s.t.c.p.router.Groups()[s.t.coordShard].Replication().Primary(), attempt)
}

// sendTo fires the attempt at the coordinator group's replica on node.
func (s submission) sendTo(node, attempt int) {
	t, c := s.t, s.t.c
	t.target = node
	env := beginEnv{ID: t.id, Ops: t.ops, Deadline: t.deadline, Client: c.c.Node, Attempt: attempt, Trace: t.trace.Ref()}
	env.TxnFloor, env.WriteFloor = c.floors()
	c.p.send(c.c.Node, node, c.p.coordPort, env, 64)
}

// Label names the call by the transaction id ("t6.3").
func (s submission) Label(uint64) string { return s.t.id.String() }

// Trace hands the engine the transaction's trace, which lives as long
// as the call does.
func (s submission) Trace(_ uint64, i int) (trace.Ref, bool) { return s.t.trace.Ref(), i == 0 }

// redirectInflight re-resolves the in-flight submission when its
// coordinator shard republishes ownership.
func (c *Client) redirectInflight(g *shard.Group) {
	t := c.inflight
	if t == nil || t.status != StatusPending || !c.p.sess.Inflight(t.call) || t.coordShard != g.Index() {
		return
	}
	if p := g.Replication().Primary(); p != t.target {
		c.p.sess.Redirect(t.call, fmt.Sprintf("republish: n%d -> n%d", t.target, p))
	}
}

// handleResp consumes one coordinator response.
func (c *Client) handleResp(m *netsim.Message) {
	env, ok := m.Payload.(outcomeEnv)
	if !ok {
		return
	}
	t := c.inflight
	if t == nil || t.id != env.ID || t.status != StatusPending {
		return // a late duplicate of a decided transaction
	}
	switch env.Kind {
	case respOutcome:
		c.finish(t, env.Committed, env.Reason, env.Deadline, env.Reads)
	case respRedirect:
		if !c.p.sess.Inflight(t.call) || env.Attempt != c.p.sess.Attempt(t.call) {
			return // a superseded attempt's verdict
		}
		c.p.sess.Redirect(t.call, fmt.Sprintf("server: n%d -> n%d", t.target, env.Primary))
	case respBlocked:
		if !c.p.sess.Inflight(t.call) || env.Attempt != c.p.sess.Attempt(t.call) {
			return
		}
		c.p.sess.Fail(t.call, "blocked")
	}
}

// finish records one decided transaction and hands the session to the
// next queued one. byDeadline is the structured abort cause carried
// end-to-end from wherever the deadline discipline fired.
func (c *Client) finish(t *Txn, committed bool, reason string, byDeadline bool, reads map[string]int64) {
	if t.status != StatusPending {
		return
	}
	if committed {
		t.status = StatusCommitted
		c.Stats.Committed++
	} else {
		t.status = StatusAborted
		c.Stats.Aborted++
		if byDeadline {
			c.Stats.DeadlineAborts++
		}
	}
	if i := slices.Index(c.open, t); i >= 0 {
		c.open = slices.Delete(c.open, i, i+1)
	}
	c.p.sess.Finish(t.call)
	t.wspan.End()
	if committed {
		t.trace.SetClass("txn.commit")
	} else {
		t.trace.SetClass("txn.abort")
		t.trace.Violate("abort: %s", reason)
	}
	t.trace.Finish()
	now := c.p.eng.Now()
	lat := now.Sub(t.submittedAt)
	if committed {
		c.mCommitLat.ObserveD(lat)
	}
	c.Stats.SumLatency += lat
	if lat > c.Stats.MaxLatency {
		c.Stats.MaxLatency = lat
	}
	c.Done = append(c.Done, Record{
		ID:        t.id,
		Ops:       t.ops, // nothing writes them after Commit
		Status:    t.status,
		Reads:     reads,
		DecidedAt: now,
	})
	if t.OnDone != nil {
		t.OnDone()
	}
	if c.inflight == t {
		c.inflight = nil
	}
	c.pump()
}

// Transfer is the canonical two-key transaction: read both accounts,
// debit from, credit to. It returns the submitted transaction.
func (c *Client) Transfer(from, to string, amount int64) *Txn {
	t := c.Begin()
	t.Read(from)
	t.Read(to)
	c.Write(t, from, -amount)
	c.Write(t, to, amount)
	c.Commit(t)
	return t
}
