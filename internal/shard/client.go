package shard

import (
	"fmt"
	"strconv"

	"hades/internal/metrics"
	"hades/internal/netsim"
	"hades/internal/session"
	"hades/internal/simkern"
	"hades/internal/trace"
	"hades/internal/vtime"
)

// Policy selects what a client does with a request that exhausted its
// retries (a partition window, an unreachable shard).
type Policy uint8

const (
	// QueueOnFailure parks the request and resubmits it when ownership
	// can have changed — a new agreed view (failover, merge) or a
	// partition heal. Requests issued into a split window are not
	// lost: they land after the merge, applied exactly once.
	QueueOnFailure Policy = iota
	// FailFast reports the request failed instead of parking it.
	FailFast
)

// String returns the policy name.
func (p Policy) String() string {
	if p == FailFast {
		return "fail-fast"
	}
	return "queue"
}

// ClientParams parameterises one client.
type ClientParams struct {
	// Node is the client's processor (one client per node and per
	// data plane).
	Node int
	// RespPort is the port responses arrive on; it must match the
	// shard groups' response port.
	RespPort string
	// Policy selects queueing or failing fast on exhaustion.
	Policy Policy
	// Session sets the throughput knobs: op batching per shard and
	// pipelined in-flight batches (the cluster layer passes its shard
	// set's). The zero value is the unbatched, unpipelined discipline.
	Session session.Params
}

// ClientStats counts one client's request outcomes. The embedded
// session counters count batch-level events — with batching off every
// batch is one op and they coincide with per-op counts.
type ClientStats struct {
	Submitted int
	Acked     int
	session.Counters
	FailedFast int // requests abandoned by the fail-fast policy
	SumLatency vtime.Duration
	MaxLatency vtime.Duration
}

// AvgLatency returns the mean submit-to-ack latency (queue and
// batching wait included).
func (s ClientStats) AvgLatency() vtime.Duration {
	if s.Acked == 0 {
		return 0
	}
	return s.SumLatency / vtime.Duration(s.Acked)
}

// Ack records one acknowledged request.
type Ack struct {
	Key    string
	Seq    uint64
	Result int64
	At     vtime.Time
}

// reqState tracks one request through the client.
type reqState uint8

const (
	// stWaiting: an earlier request on the same key is still
	// outstanding; this one holds its turn (per-key FIFO — without it,
	// independent retry schedules could apply two writes to one key in
	// the wrong order across a failover).
	stWaiting reqState = iota + 1
	// stBatching: head of its key's session, accumulating in the
	// batcher until its batch flushes.
	stBatching
	stInflight
	stAcked
	stFailed
)

// request is one keyed request owned by the client.
type request struct {
	key         string
	cmd         int64
	seq         uint64
	shard       int
	submittedAt vtime.Time
	state       reqState
	// done, when set, runs at the request's ack.
	done func()
	// behind is the next request on the same key, waiting for this
	// one's outcome (the per-key FIFO's link).
	behind *request

	// trace is the request's causal trace; the spans mark its layer
	// transitions (per-key queue → batcher → wire) on the client side,
	// with the server opening the replication span on the same trace.
	trace *trace.Trace
	qspan trace.SpanRef // per-key FIFO wait
	bspan trace.SpanRef // batcher coalescing + pipeline wait
	wspan trace.SpanRef // session call in flight (retries included)
}

// batch is one emitted batched submission: its ops, its session call
// (the retry discipline), and the target its live attempt was sent to.
type batch struct {
	c      *Client
	id     uint64
	shard  int
	ops    []*request
	call   session.Handle
	target int
}

// Send fires one attempt of the batch at the owning group's current
// primary.
func (b *batch) Send(_ uint64, attempt int) {
	b.sendTo(b.c.router.Groups()[b.shard].Replication().Primary(), attempt)
}

// sendTo fires the attempt at the group's replica on node.
func (b *batch) sendTo(node, attempt int) {
	c := b.c
	b.target = node
	env := batchEnv{Client: c.p.Node, Batch: b.id, Attempt: attempt, Floor: c.floor, Ops: make([]batchOp, len(b.ops))}
	for i, r := range b.ops {
		env.Ops[i] = batchOp{Key: r.key, Cmd: r.cmd, Seq: r.seq, Trace: r.trace.Ref()}
	}
	_, _ = c.net.Send(c.p.Node, node, c.router.Groups()[b.shard].reqPort, env, 48*len(b.ops))
}

// Label names the batch (see batchLabel).
func (b *batch) Label(uint64) string { return batchLabel(b) }

// Trace hands the engine the trace of the batch's i-th op while the op
// is in flight (an acked or failed op's trace is finished).
func (b *batch) Trace(_ uint64, i int) (trace.Ref, bool) {
	if i >= len(b.ops) {
		return trace.Ref{}, false
	}
	if r := b.ops[i]; r.state == stInflight {
		return r.trace.Ref(), true
	}
	return trace.Ref{}, true
}

// Failed abandons the batch when a fail-fast client's retries ran out.
func (b *batch) Failed(uint64) { b.c.failBatch(b) }

// keyQueue is one key's unfinished requests, a FIFO linked through
// request.behind: head holds the turn, tail is the latest submitted.
type keyQueue struct{ head, tail *request }

// Client is the session layer of the sharded data plane: it submits
// keyed requests, coalesces ops bound for the same shard into batched
// submissions (pipelined up to the configured depth), follows the ring
// to the owning group's current primary, and transparently retries and
// redirects across crash failover, stale-view rejection and partition
// windows — the retry discipline itself lives in internal/session.
type Client struct {
	eng    *simkern.Engine
	net    *netsim.Network
	router *Router
	p      ClientParams
	sess   *session.Engine

	seq     uint64
	reqs    map[uint64]*request
	perKey  map[string]keyQueue // unfinished requests per key
	lanes   []string            // batcher lane name per shard index
	batcher *session.Batcher[*request]
	nextBat uint64
	batches map[uint64]*batch // live batches by id; sess lists their calls, emission order
	// floor is the highest seq at or below which every request is acked
	// or failed fast — out of reqs, never sent again. Every attempt
	// carries it, so the replicas forget what it retires.
	floor uint64

	// Stats counts outcomes; Acks records them for the harness
	// (Verify checks Acks against the shard groups' apply histories).
	Stats ClientStats
	Acks  []Ack

	// mAck is the per-interval ack-latency histogram (nil-safe when
	// the metrics plane is off).
	mAck *metrics.Hist
}

// NewClient builds a client on params.Node and wires its reactive
// paths: server responses, router republications (in-flight batches
// redirect), and the resubmission triggers for parked batches (any
// new agreed view on any shard, and partition heals).
func NewClient(eng *simkern.Engine, net *netsim.Network, router *Router, params ClientParams) *Client {
	newSession := session.New
	if params.Policy == FailFast {
		newSession = session.NewFailFast // an exhausted batch fails (batch.Failed)
	}
	c := &Client{eng: eng, net: net, router: router, p: params,
		sess:    newSession(eng),
		reqs:    make(map[uint64]*request),
		perKey:  make(map[string]keyQueue),
		batches: make(map[uint64]*batch),
		mAck:    eng.Metrics().Hist("kv.ack.latency"),
	}
	c.lanes = make([]string, len(router.Groups()))
	for i := range c.lanes {
		c.lanes[i] = fmt.Sprintf("s%d", i)
	}
	c.batcher = session.NewBatcher[*request](eng, params.Session,
		fmt.Sprintf("shard.client@n%d", params.Node), params.Node, c.launch)
	net.Bind(params.Node, params.RespPort, c.handleResp)
	router.OnRepublish(c.redirectInflight)
	for _, g := range router.Groups() {
		c.sess.WireViews(g.Membership())
	}
	c.sess.WireHeals(net)
	return c
}

// Node returns the client's processor.
func (c *Client) Node() int { return c.p.Node }

// Params returns the client's parameters.
func (c *Client) Params() ClientParams { return c.p }

// BatchStats returns the client's batcher counters (sizes, flush
// causes, pipeline stalls).
func (c *Client) BatchStats() session.BatchStats { return c.batcher.Stats }

// MaxInflight returns the deepest pipeline reached per shard lane.
func (c *Client) MaxInflight() map[string]int { return c.batcher.MaxInflight() }

// Submit issues one keyed request and returns its sequence number. The
// command is applied exactly once on the owning shard regardless of
// how many retries, redirects or resubmissions it takes to land.
// Requests on the same key are a session: they apply in submission
// order (per-key FIFO — a later request waits for the earlier one's
// outcome), while distinct keys proceed in parallel, batched per
// owning shard.
func (c *Client) Submit(key string, cmd int64) uint64 { return c.SubmitDone(key, cmd, nil) }

// SubmitDone is Submit with a completion callback, invoked at the
// request's ack after the client's own bookkeeping. A request the
// fail-fast policy abandons never completes.
func (c *Client) SubmitDone(key string, cmd int64, done func()) uint64 {
	c.seq++
	r := &request{
		key:         key,
		cmd:         cmd,
		seq:         c.seq,
		shard:       c.router.ShardFor(key),
		submittedAt: c.eng.Now(),
		done:        done,
	}
	c.reqs[r.seq] = r
	c.Stats.Submitted++
	r.trace = c.eng.Tracer().Begin("kv.write", r.shard)
	r.trace.SetLabelKey(key, r.seq, c.p.Node)
	if q, busy := c.perKey[key]; busy {
		q.tail.behind = r
		q.tail = r
		c.perKey[key] = q
		r.state = stWaiting // an earlier request on key holds the turn
		r.qspan = r.trace.Span("queue.key", trace.LayerQueue)
		return r.seq
	}
	c.perKey[key] = keyQueue{head: r, tail: r}
	c.enqueue(r)
	return r.seq
}

// enqueue hands one head-of-key request to the batcher. Because only
// heads enter, a batch never carries two ops on one key — the per-key
// FIFO survives batching.
func (c *Client) enqueue(r *request) {
	r.state = stBatching
	r.qspan.End()
	r.bspan = r.trace.Span("batch.wait", trace.LayerBatch)
	c.batcher.Add(c.lanes[r.shard], r)
}

// launch emits one flushed batch: it becomes a session call whose
// attempts send the batch envelope at the owning group's current
// primary.
func (c *Client) launch(lane string, ops []*request) {
	c.nextBat++
	b := &batch{c: c, id: c.nextBat, shard: ops[0].shard, ops: ops}
	c.batches[b.id] = b
	for _, r := range ops {
		r.state = stInflight
		r.bspan.End()
		r.wspan = r.trace.Span("rpc.batch", trace.LayerWire)
	}
	b.call = c.sess.Start(b, 0, c.p.Node, &c.Stats.Counters)
}

// batchLabel renders a batch for the monitor log: singletons keep the
// per-request label ("shard.k7#12"), real batches carry their size
// ("shard.b3@s1[4]"). It appends into a stack buffer, so the label
// string is its one allocation.
func batchLabel(b *batch) string {
	var buf [64]byte
	out := append(buf[:0], "shard."...)
	if len(b.ops) == 1 {
		out = append(out, b.ops[0].key...)
		out = append(out, '#')
		out = strconv.AppendUint(out, b.ops[0].seq, 10)
		return string(out)
	}
	out = append(out, 'b')
	out = strconv.AppendUint(out, b.id, 10)
	out = append(out, "@s"...)
	out = strconv.AppendInt(out, int64(b.shard), 10)
	out = append(out, '[')
	out = strconv.AppendInt(out, int64(len(b.ops)), 10)
	out = append(out, ']')
	return string(out)
}

// finishKey retires the head request of its key's session (acked or
// abandoned) and hands the turn to the next waiting request.
func (c *Client) finishKey(r *request) {
	q := c.perKey[r.key]
	if q.head != r {
		return
	}
	next := r.behind
	r.behind = nil
	if next == nil {
		delete(c.perKey, r.key)
		return
	}
	q.head = next
	c.perKey[r.key] = q
	c.enqueue(next)
}

// retire ends one batch and frees its pipeline slot (after the
// per-op bookkeeping ran, so freshly unblocked per-key successors can
// ride the freed slot).
func (c *Client) retire(b *batch) {
	c.sess.Finish(b.call)
	delete(c.batches, b.id)
	c.batcher.Complete(c.lanes[b.shard])
}

// failBatch abandons every op of a batch (fail-fast exhaustion).
func (c *Client) failBatch(b *batch) {
	for _, r := range b.ops {
		r.state = stFailed
		delete(c.reqs, r.seq)
		c.Stats.FailedFast++
		r.trace.Violate("failed fast: retry budget exhausted")
		r.trace.Finish()
		c.finishKey(r)
	}
	c.raiseFloor()
	c.retire(b)
}

// raiseFloor advances the floor over the seqs no longer in reqs: one
// probe per request over the run.
func (c *Client) raiseFloor() {
	for c.floor < c.seq && c.reqs[c.floor+1] == nil {
		c.floor++
	}
}

// redirectInflight re-resolves in-flight batches of a republished
// shard, in emission order: when the new primary differs from the
// attempt's target the batch redirects immediately instead of waiting
// out its timeout. The client's engine owns only its batches' calls
// and keeps them proportional to the live set, so the scan is too.
func (c *Client) redirectInflight(g *Group) {
	p := g.Replication().Primary()
	c.sess.EachLive(func(o session.Owner) {
		b := o.(*batch)
		if !c.sess.Inflight(b.call) || b.shard != g.Index() || b.target == p {
			return
		}
		c.sess.Redirect(b.call, fmt.Sprintf("republish: n%d -> n%d", b.target, p))
	})
}

// handleResp consumes one server response.
func (c *Client) handleResp(m *netsim.Message) {
	env, ok := m.Payload.(*respEnv)
	if !ok {
		return
	}
	b := c.batches[env.Batch]
	if b == nil {
		return // late duplicate of an answered batch
	}
	switch env.Kind {
	case respOK:
		// A late OK is accepted from any attempt — the commands landed.
		now := c.eng.Now()
		for _, res := range env.Results {
			r := c.reqs[res.Seq]
			if r == nil || r.state == stAcked || r.state == stFailed {
				continue
			}
			r.state = stAcked
			delete(c.reqs, r.seq)
			lat := now.Sub(r.submittedAt)
			c.mAck.ObserveD(lat)
			c.Stats.Acked++
			c.Stats.SumLatency += lat
			if lat > c.Stats.MaxLatency {
				c.Stats.MaxLatency = lat
			}
			c.Acks = append(c.Acks, Ack{Key: r.key, Seq: r.seq, Result: res.Result, At: now})
			r.wspan.End()
			r.trace.Finish()
			c.finishKey(r)
			if r.done != nil {
				r.done()
			}
		}
		c.raiseFloor()
		c.retire(b)
	case respRedirect:
		if !c.sess.Inflight(b.call) || env.Attempt != c.sess.Attempt(b.call) {
			return // a superseded attempt's verdict; the live one decides
		}
		c.sess.Redirect(b.call, fmt.Sprintf("server: n%d -> n%d", b.target, env.Primary))
	case respBlocked:
		if !c.sess.Inflight(b.call) || env.Attempt != c.sess.Attempt(b.call) {
			return // a superseded attempt's verdict; the live one decides
		}
		c.sess.Fail(b.call, "blocked")
	}
}
