package shard

import (
	"fmt"
	"slices"

	"hades/internal/membership"
	"hades/internal/metrics"
	"hades/internal/monitor"
	"hades/internal/netsim"
	"hades/internal/replication"
	"hades/internal/simkern"
	"hades/internal/trace"
)

// batchOp is one keyed operation inside a batched client submission.
// Trace rides the envelope so the server opens the replication span on
// the op's own causal trace (single-process simulation: the
// generation-checked ref is the propagation format — safe even when a
// late duplicate outlives its recycled trace).
type batchOp struct {
	Key   string
	Cmd   int64
	Seq   uint64
	Trace trace.Ref
}

// batchEnv is one batched client submission crossing the wire: every
// op targets this shard, and the whole batch is admitted (or bounced)
// as one routing decision. Unbatched clients send batches of one.
// Attempt is the client's attempt counter for the batch, echoed back
// in failure responses so superseded attempts' verdicts are discarded.
// Floor is the client's floor when the attempt left (Client.floor).
type batchEnv struct {
	Client  int // client node id
	Batch   uint64
	Attempt int
	Floor   uint64
	Ops     []batchOp
}

// TraceRefs implements trace.Carrier: a dropped batch envelope marks
// every op's trace violating (the omission rule).
func (e batchEnv) TraceRefs() []trace.Ref {
	out := make([]trace.Ref, len(e.Ops))
	for i, op := range e.Ops {
		out[i] = op.Trace
	}
	return out
}

// respKind classifies a server response.
type respKind uint8

const (
	// respOK carries the applied (or dedup-cached) results, op order.
	respOK respKind = iota + 1
	// respRedirect tells the client which node the server believes is
	// the group's current primary.
	respRedirect
	// respBlocked is the stale-view rejection: the server cannot reach
	// a majority of its installed view, so serving would risk acking a
	// write the merge view will discard.
	respBlocked
)

// opResult is one op's result inside a batch response.
type opResult struct {
	Seq    uint64
	Result int64
}

// respEnv is one server response to a batch. Attempt echoes the
// batch's attempt counter (stale-attempt failure responses are ignored
// by the client; a late OK is accepted from any attempt — the commands
// landed).
type respEnv struct {
	Batch   uint64
	Attempt int
	Kind    respKind
	Primary int        // respRedirect only
	Results []opResult // respOK only, op order
}

// Applied records one fresh state-machine apply at one replica — an
// entry of the group's apply history, which Verify checks exactly-once
// and per-key order against.
type Applied struct {
	Key    string
	Client int
	Seq    uint64
	Cmd    int64
	Result int64
}

// GroupStats counts the routing outcomes at one shard's replicas.
type GroupStats struct {
	// Requests counts client requests arriving at any replica.
	Requests int
	// Served counts OK responses sent (fresh applies and dedup hits).
	Served int
	// Redirects counts requests bounced to the current primary.
	Redirects int
	// Blocked counts stale-view rejections (no local quorum).
	Blocked int
}

// pendingBatch tracks one accepted client batch until every op's
// authoritative reply lands, at which point one response answers the
// whole batch: resp, the OK answer its ops fill in as they retire,
// sent by pointer.
type pendingBatch struct {
	resp      respEnv
	from      int // client node to answer
	remaining int
	responded bool
}

// pendingOp is one accepted op's record, the replication.Owner its
// group hands the op back to: its identity for the apply history, and the
// batch its reply completes (nil for transaction-layer submissions,
// which answer their own client — applied is then the transaction
// layer's record, told once after the first apply is logged, with the
// write's key and sequence number).
type pendingOp struct {
	g       *Group
	op      batchOp
	client  int
	batch   *pendingBatch
	idx     int
	done    bool
	span    trace.SpanRef // the op's replication-round span
	applied WriteOwner
}

// WriteOwner is the transaction-layer record a SubmitKeyed write
// serves: the group calls WriteApplied once, at the write's first apply
// anywhere, after it is logged.
type WriteOwner interface {
	WriteApplied(key string, seq uint64)
}

// Applied logs one fresh apply at node, then tells the transaction
// layer's record on the op's first apply anywhere.
func (po *pendingOp) Applied(node int, result int64) {
	po.g.recordApply(node, po, result)
	if o := po.applied; o != nil {
		po.applied = nil
		o.WriteApplied(po.op.Key, po.op.Seq)
	}
}

// Replied retires the op at the primary's authoritative reply.
func (po *pendingOp) Replied(result int64, _ bool) { po.g.finish(po, result) }

// GroupConfig parameterises one shard group.
type GroupConfig struct {
	// Name scopes the shard's network ports and its monitor records.
	Name string
	// Index is the shard's position on the ring.
	Index int
	// RespPort is the port client responses are sent to (data planes
	// coexisting on one cluster need distinct ports, which the cluster
	// layer derives from the set name).
	RespPort string
	// Replication configures the underlying replica group. Replicas
	// must be members of the membership service's universe.
	Replication replication.Config
}

// Group is the server side of one shard: a replicated state machine
// whose replicas accept keyed client requests, redirect non-primaries
// to the current primary, reject service without a local quorum, and
// keep an apply history for verification: one log the replicas share
// while they agree, so each replica's log is recoverable.
type Group struct {
	eng *simkern.Engine
	net *netsim.Network
	mem *membership.Service
	rep *replication.Group

	name     string
	index    int
	reqPort  string
	respPort string
	nodes    []int
	// replSpan/applySpan are the per-op trace span names, precomputed
	// because they are minted on every replicated op.
	replSpan  string
	applySpan string

	// hist is the apply history the replicas share: each replica's log
	// is a prefix of it until the replica first applies something else.
	hist []Applied
	// reps holds each replica's audit state, aligned with nodes.
	reps []replica

	// Stats counts the routing outcomes for the harness.
	Stats GroupStats

	// items is handleRequest's scratch: SubmitOwned copies the items
	// it is handed, so one slice serves every admitted batch.
	items []replication.BatchItem

	// open counts admitted ops not yet retired by an authoritative
	// reply (the metrics plane samples it as the shard's queue depth);
	// mOps and mKeys are the per-shard admission counter and the
	// per-key hotness sketch, all nil-safe when the plane is off.
	open  int
	mOps  *metrics.Counter
	mKeys *metrics.TopK
}

// NewGroup builds one shard group over a membership service: it owns
// its replication group (failover driven by installed views) and binds
// the shard request port on every replica.
func NewGroup(eng *simkern.Engine, net *netsim.Network, mem *membership.Service, cfg GroupConfig) (*Group, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("shard: group needs a name")
	}
	if cfg.Replication.Style == replication.Active {
		return nil, fmt.Errorf("shard: group %q: active replication has no primary to route to", cfg.Name)
	}
	g := &Group{
		eng:      eng,
		net:      net,
		mem:      mem,
		name:     cfg.Name,
		index:    cfg.Index,
		reqPort:  "shard." + cfg.Name + ".req",
		respPort: cfg.RespPort,
		nodes:    append([]int(nil), cfg.Replication.Replicas...),
	}
	g.reps = make([]replica, len(g.nodes))
	for i := range g.reps {
		g.reps[i].kv = make(map[string]int64)
	}
	g.replSpan = "replicate." + g.name
	g.applySpan = "apply." + g.name
	g.mOps = eng.Metrics().Counter("shard.ops." + g.name)
	g.mKeys = eng.Metrics().Keys()
	eng.Metrics().GaugeFunc("shard.queue."+g.name, func() int64 { return int64(g.open) })
	rep, err := replication.NewGroup(eng, net, mem, cfg.Replication, nil)
	if err != nil {
		return nil, err
	}
	g.rep = rep
	for _, n := range g.nodes {
		node := n
		net.Bind(node, g.reqPort, func(m *netsim.Message) { g.handleRequest(node, m) })
	}
	net.OnDownChange(func(node int, down bool) {
		if r := g.replica(node); down && r != nil {
			r.holed = true
		}
	})
	// A replica excluded from an agreed view while alive (a blocked
	// minority) misses every apply of that view: its log is holed even
	// though it was never down.
	mem.OnChange(func(v membership.View) {
		for i, n := range g.nodes {
			if !v.Contains(n) {
				g.reps[i].holed = true
			}
		}
	})
	return g, nil
}

// Name returns the shard group's name.
func (g *Group) Name() string { return g.name }

// Index returns the shard's position on the ring.
func (g *Group) Index() int { return g.index }

// Nodes returns the replica nodes, in promotion order.
func (g *Group) Nodes() []int { return append([]int(nil), g.nodes...) }

// Replication returns the underlying replica group.
func (g *Group) Replication() *replication.Group { return g.rep }

// Membership returns the shard's membership service.
func (g *Group) Membership() *membership.Service { return g.mem }

// authoritativeNode returns the replica whose apply log is the
// authoritative history: the current primary, or — if the primary's
// log is holed (it was down, or view-excluded while partitioned;
// rejoin state transfers restore state, not logs) — the first
// hole-free replica in promotion order.
func (g *Group) authoritativeNode() (int, bool) {
	p := g.rep.Primary()
	if r := g.replica(p); r != nil && !r.holed {
		return p, true
	}
	for i, n := range g.nodes {
		if !g.reps[i].holed {
			return n, true
		}
	}
	return -1, false
}

// Verdict is the serving gate's answer for one replica.
type Verdict uint8

// The gate's verdicts, in the order Gate rules them out.
const (
	// Serve: the replica is up, holds a local quorum and is primary.
	Serve Verdict = iota + 1
	// Down: the replica is crashed; it neither serves nor answers.
	Down
	// NoQuorum: the replica cannot reach a majority of its installed view.
	NoQuorum
	// NotPrimary: the replica is a healthy backup.
	NotPrimary
)

// Gate decides whether replica node may serve a request of any plane
// riding this group, and names the primary the group currently has (the
// redirect target when the verdict is NotPrimary). It is the one
// spelling of the rule; what a caller does with a refusal — answer
// blocked, redirect, or stay silent and let the sender's retry find the
// primary — is that caller's protocol.
//
// The order is part of the rule. Down comes first: a crashed node has no
// view to reason from. Quorum comes before primaryship because a replica
// on the minority side of a partition still believes the primary it last
// agreed on — possibly itself. Were it to serve, it would ack work the
// majority never saw and the merge view discards; were it to redirect,
// it would send the client to a primary the majority may have replaced.
// Only a replica that can reach a majority of its view knows who the
// primary is. (A stale primary whose detector has not yet timed out
// still passes — the fencing window ROADMAP item 7(a)'s lease closes,
// here and nowhere else.)
func (g *Group) Gate(node int) (Verdict, int) {
	p := g.rep.Primary()
	switch {
	case g.net.NodeDown(node):
		return Down, p
	case !g.mem.HasQuorum(node):
		return NoQuorum, p
	case node != p:
		return NotPrimary, p
	}
	return Serve, p
}

// handleRequest serves one client batch arriving at replica node: the
// routing decision is made once for the batch, and an admitted batch
// enters the replicated machine as one round whose items keep their
// per-op dedup tags.
func (g *Group) handleRequest(node int, m *netsim.Message) {
	env, ok := m.Payload.(batchEnv)
	if !ok || len(env.Ops) == 0 {
		return
	}
	verdict, primary := g.Gate(node)
	if verdict == Down {
		return
	}
	g.Stats.Requests += len(env.Ops)
	switch verdict {
	case NoQuorum:
		// Stale-view rejection: an ack here could be overwritten by the
		// authoritative majority at the merge.
		g.Stats.Blocked++
		g.eng.Recordf(monitor.KindQuorumBlocked, node, g.name, "rejected c%d b%d (%d ops): no quorum", env.Client, env.Batch, len(env.Ops))
		for _, op := range env.Ops {
			op.Trace.Instant("blocked at n%d: no quorum", node)
		}
		g.respond(node, m.From, &respEnv{Batch: env.Batch, Attempt: env.Attempt, Kind: respBlocked})
		return
	case NotPrimary:
		g.Stats.Redirects++
		g.eng.Recordf(monitor.KindRedirect, node, g.name, "c%d b%d -> n%d", env.Client, env.Batch, primary)
		g.respond(node, m.From, &respEnv{Batch: env.Batch, Attempt: env.Attempt, Kind: respRedirect, Primary: primary})
		return
	}
	pb := &pendingBatch{
		resp:      respEnv{Batch: env.Batch, Attempt: env.Attempt, Kind: respOK, Results: make([]opResult, len(env.Ops))},
		from:      m.From,
		remaining: len(env.Ops),
	}
	items := g.items[:0]
	ops := make([]pendingOp, len(env.Ops))
	for i, op := range env.Ops {
		ops[i] = pendingOp{g: g, op: op, client: env.Client, batch: pb, idx: i}
		items = append(items, replication.BatchItem{
			Cmd:   op.Cmd,
			Tag:   replication.Tag(replication.TagKV, uint64(env.Client), op.Seq),
			Owner: &ops[i],
			Floor: env.Floor,
		})
		pb.resp.Results[i].Seq = op.Seq
	}
	g.rep.SubmitOwned(node, items)
	clear(items)
	g.items = items
	for i, op := range env.Ops {
		ops[i].span = op.Trace.Span(g.replSpan, trace.LayerReplicate)
		g.open++
		g.mOps.Inc()
		g.mKeys.Touch(op.Key, g.index)
	}
}

// replica is one replica's audit state. Its apply log is hist[:pos]
// until its first apply that differs from the shared entry at pos;
// from then on it is own, a copy of that prefix the replica extends
// alone.
type replica struct {
	pos int
	own []Applied
	// kv is the replica's keyed view: the last applied write's command
	// per key (the transaction layer reads it at prepare time).
	kv map[string]int64
	// holed marks a replica whose apply log has a hole: it was down, or
	// excluded from an agreed view while alive (a partition-isolated
	// replica misses the majority's applies, and the merge state
	// transfer restores the state and dedup table but not the log).
	holed bool
}

// replica returns node's audit state, nil when node is no replica.
func (g *Group) replica(node int) *replica {
	if i := slices.Index(g.nodes, node); i >= 0 {
		return &g.reps[i]
	}
	return nil
}

// recordApply logs one fresh apply at node (suppressed duplicates
// never reach it). A holed replica's log is never authoritative again,
// so it stops logging; its keyed view still follows its applies.
func (g *Group) recordApply(node int, po *pendingOp, result int64) {
	r := g.replica(node)
	r.kv[po.op.Key] = po.op.Cmd
	if r.holed {
		return
	}
	a := Applied{Key: po.op.Key, Client: po.client, Seq: po.op.Seq, Cmd: po.op.Cmd, Result: result}
	switch {
	case r.own != nil:
		r.own = append(r.own, a)
	case r.pos == len(g.hist):
		g.hist = append(g.hist, a)
		r.pos++
	case g.hist[r.pos] == a:
		r.pos++
	default:
		// The replica departs from the shared history: appending to its
		// clipped prefix copies that into a log of its own.
		r.own = append(g.hist[:r.pos:r.pos], a)
		if testHookFork != nil {
			testHookFork(g, node, r.pos)
		}
	}
}

// testHookFork, when set, sees each replica's departure from its
// group's shared history, at the log position where it departs.
var testHookFork func(g *Group, node, at int)

// log returns r's apply log, capacity clipped so that a caller's
// append cannot write into the shared history.
func (g *Group) log(r *replica) []Applied {
	if r.own != nil {
		return slices.Clip(r.own)
	}
	return g.hist[:r.pos:r.pos]
}

// KeyValue returns node's view of the last applied write command on
// key (false if the key was never written there). The transaction
// layer serves reads from the primary's view under the key's lock.
func (g *Group) KeyValue(node int, key string) (int64, bool) {
	if r := g.replica(node); r != nil {
		v, ok := r.kv[key]
		return v, ok
	}
	return 0, false
}

// SubmitKeyed routes one keyed command into the shard's replicated
// machine on behalf of the transaction layer: submitted at the current
// primary, deduplicated in the transaction-write tag space, and recorded
// in the group's apply history under the owning client's identity —
// the same histories Verify and txn.Verify audit. applied hears
// WriteApplied(key, seq) once, right after the write's first apply
// anywhere is logged. floor is the client's write floor (see
// replication.BatchItem.Floor): every write it numbered at or below it
// belongs to a transaction the client has decided.
func (g *Group) SubmitKeyed(key string, cmd int64, client int, seq, floor uint64, tr trace.Ref, applied WriteOwner) {
	// No batch: the transaction layer answers its own client.
	po := &pendingOp{g: g, op: batchOp{Key: key, Cmd: cmd, Seq: seq}, client: client, applied: applied}
	g.rep.SubmitOwned(g.rep.Primary(), []replication.BatchItem{{
		Cmd: cmd, Tag: replication.Tag(replication.TagTxnWrite, uint64(client), seq), Owner: po, Floor: floor,
	}})
	po.span = tr.Span(g.applySpan, trace.LayerReplicate)
	g.open++
	g.mOps.Inc()
	g.mKeys.Touch(key, g.index)
}

// finish retires one op at the primary's (authoritative) reply, and
// the batch answers its client when its last op retires.
func (g *Group) finish(po *pendingOp, result int64) {
	if po.done {
		return
	}
	po.done = true
	po.span.End()
	g.open--
	pb := po.batch
	if pb == nil || pb.responded {
		return
	}
	pb.resp.Results[po.idx].Result = result
	g.Stats.Served++
	pb.remaining--
	if pb.remaining > 0 {
		return
	}
	pb.responded = true
	g.respond(g.rep.Primary(), pb.from, &pb.resp)
}

// respond sends one response back to the client node (never the
// replica's own: clients and replicas do not share nodes).
func (g *Group) respond(from, to int, env *respEnv) {
	_, _ = g.net.Send(from, to, g.respPort, env, 32)
}
