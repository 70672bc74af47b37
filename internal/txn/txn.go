// Package txn gives the sharded data plane multi-key atomic
// transactions: two-phase commit where both the coordinator log and
// the participants are the existing replicated groups, and every
// transaction carries a virtual-time deadline.
//
// The layering follows the middleware argument (Kim & Kumar; YASMIN):
// coordination primitives must compose with timing guarantees, so the
// commit protocol is deadline-aware rather than best-effort blocking —
// a prepare that cannot complete by the transaction's deadline
// (timeout, lock conflict, stale-view rejection, partition window)
// deterministically aborts and releases its locks instead of holding
// them into the fault window.
//
//   - The client (Begin/Read/Write/Commit) batches keyed operations
//     and submits the whole transaction to its coordinator — the shard
//     group chosen by hashing the transaction id on the existing
//     consistent-hash ring. The submission rides the PR 4 session
//     discipline: timeout/retry, redirect-following, stale-view
//     handling, and parking with resubmission after merge views.
//   - The coordinator drives PREPARE to every owning shard's primary,
//     collects votes, and logs its COMMIT/ABORT decision through
//     replication.SubmitTagged into its own replicated machine before
//     distributing it — every replica of the coordinator group mirrors
//     the decision from the apply stream, the dedup tag makes the log
//     entry idempotent, and a rejoining replica receives the decision
//     table through the membership state transfer, so the decision
//     survives crash failover exactly as far as the group state does.
//   - Participants acquire per-key locks in the session layer and vote.
//     A conflicting prepare waits in the lock queue (LockWait) until
//     its deadline; an unserved prepare votes NO at the deadline. A
//     YES-voted participant never holds locks past the deadline either:
//     at the deadline it releases them and resolves the pending
//     decision by querying the coordinator group — queries park during
//     partition windows and resubmit after the merge view, the same
//     queue policy the data-plane client uses.
//
// The plane forgets what its clients have acknowledged, and answers
// every late copy exactly as the forgotten record did:
//
//   - The client keeps its open transactions (begun, not yet decided)
//     in Begin order. Every attempt carries two floors: the numbers
//     below the oldest open transaction's, or every number the client
//     has given out when none is open — TxnFloor for transactions,
//     WriteFloor for write sequence numbers. Only the client knows it
//     will never send one of those again.
//   - A coordinator keeps each client's transaction floor, raised by
//     its submissions, and drops a transaction record once it is
//     decided, distributed, acked by every participant and at or below
//     that floor. A submission at or below the floor with no record
//     draws the one outcome message the record would have sent (the
//     client, having decided it, drops it); votes and acks for it are
//     dropped and queries answered from the decision mirror, as
//     before. Its decision-log entries carry the floor, so the
//     TagTxnDecision dedup space forgets what lies below it. Both
//     rules rest on the client deciding a submitted transaction only
//     from its coordinator's outcome, sent once the decision applied
//     (one that times out in the client queue was never sent): an id
//     at or below the floor with no record was retired here, and no
//     decision is logged after the floor passes it, where it would
//     count as a duplicate.
//   - A participant drops a prepare once it is done and either acked
//     or no commit: at the last write apply, at a read-only commit, at
//     an abort decision and at a deadline NO vote. It keeps one bit per
//     (client, transaction) for "retired here": a PREPARE for such an
//     id is silent and a decision acked, as the done prepare answered
//     them, while an id never prepared keeps its own answers (a NO vote
//     past the deadline, a fresh prepare before it, an ack for an
//     abort). A floor could not tell the two apart, so that bit is the
//     one state left that grows with the run. The writes carry the
//     prepare's WriteFloor, so the TagTxnWrite dedup space forgets
//     what lies below it.
//
// Verify asserts the atomic-commitment contract after a run: every
// committed transaction's writes appear exactly once in all owning
// shards' authoritative histories, every aborted transaction's writes
// appear in none, and no participant held a lock past its deadline.
package txn

import (
	"strconv"

	"hades/internal/monitor"
	"hades/internal/netsim"
	"hades/internal/session"
	"hades/internal/shard"
	"hades/internal/simkern"
	"hades/internal/trace"
	"hades/internal/vtime"
)

// ID identifies one transaction: the submitting client's node plus its
// per-client transaction number.
type ID struct {
	Client int
	Num    uint64
}

// String renders the id ("t6.3").
func (id ID) String() string {
	var buf [48]byte
	return string(id.append(buf[:0]))
}

// append appends the rendered id to b.
func (id ID) append(b []byte) []byte {
	b = strconv.AppendInt(append(b, 't'), int64(id.Client), 10)
	return strconv.AppendUint(append(b, '.'), id.Num, 10)
}

// key appends the ring key the coordinator shard is chosen by
// ("txn:t6.3").
func (id ID) key(b []byte) []byte { return id.append(append(b, "txn:"...)) }

// loopLabel renders a protocol loop's label ("prep.t6.3.s2") into one
// string, without fmt.
func loopLabel(kind string, id ID, shard int) string {
	var buf [64]byte
	b := id.append(append(append(buf[:0], kind...), '.'))
	return string(strconv.AppendInt(append(b, ".s"...), int64(shard), 10))
}

// OpKind classifies one keyed operation.
type OpKind uint8

const (
	// OpRead locks the key and returns its current value at prepare
	// time (the last committed write, 0 if never written).
	OpRead OpKind = iota + 1
	// OpWrite locks the key and, on commit, applies Cmd to the owning
	// shard's replicated machine.
	OpWrite
)

// Op is one keyed operation of a transaction.
type Op struct {
	Kind OpKind
	Key  string
	// Cmd is the written command (writes only).
	Cmd int64
	// Seq is the client-wide write sequence number — the write's
	// identity in the owning shard's apply log and dedup table.
	Seq uint64
	// Shard is the owning shard index, resolved at commit time.
	Shard int
}

// Status is a transaction's lifecycle state.
type Status uint8

const (
	// StatusPending: building, queued, or awaiting its outcome.
	StatusPending Status = iota
	// StatusCommitted: all participants voted yes before the deadline.
	StatusCommitted
	// StatusAborted: a participant voted no, or the deadline passed
	// before the decision.
	StatusAborted
)

// String returns the status name.
func (s Status) String() string {
	switch s {
	case StatusCommitted:
		return "committed"
	case StatusAborted:
		return "aborted"
	default:
		return "pending"
	}
}

// respKind classifies a coordinator's response to a client submission.
type respKind uint8

const (
	// respOutcome carries the decision (Committed + reads).
	respOutcome respKind = iota + 1
	// respRedirect names the coordinator group's current primary.
	respRedirect
	// respBlocked is the stale-view rejection: the receiving replica
	// cannot reach a majority of its installed view.
	respBlocked
)

// beginEnv is one client transaction submission crossing the wire.
// Attempt echoes back in failure responses so superseded attempts'
// verdicts are discarded (the PR 4 discipline).
type beginEnv struct {
	ID       ID
	Ops      []Op
	Deadline vtime.Time
	Client   int
	Attempt  int
	// TxnFloor and WriteFloor are the client's floors when it sent the
	// attempt: every transaction numbered at or below TxnFloor, and
	// every write numbered at or below WriteFloor, belongs to a
	// transaction the client has decided, so it sends none of them
	// again.
	TxnFloor, WriteFloor uint64
	// Trace is the transaction's causal trace (the generation-checked
	// ref is the propagation format in the single-process simulation;
	// the zero ref when tracing is off).
	Trace trace.Ref
}

// TraceRefs lets the network mark the carried trace on message drops.
func (e beginEnv) TraceRefs() []trace.Ref {
	return []trace.Ref{e.Trace}
}

// outcomeEnv is the coordinator's response to a submission. Deadline
// marks aborts caused by the deadline discipline (a structured cause;
// reasons are human-readable detail only).
type outcomeEnv struct {
	ID        ID
	Attempt   int
	Kind      respKind
	Committed bool
	Reason    string
	Deadline  bool
	Reads     map[string]int64
	Primary   int // respRedirect only
}

// prepareEnv asks one owning shard to lock and vote.
type prepareEnv struct {
	ID       ID
	Ops      []Op
	Deadline vtime.Time
	// Coord is the coordinator shard index (decision queries resolve
	// against its current primary).
	Coord int
	// WriteFloor is the client's write floor as its submission carried
	// it; the transaction's writes carry it into the shard's dedup table.
	WriteFloor uint64
	// Trace is the owning transaction's causal trace (the zero ref
	// when tracing is off).
	Trace trace.Ref
}

// TraceRefs lets the network mark the carried trace on message drops.
func (e prepareEnv) TraceRefs() []trace.Ref {
	return []trace.Ref{e.Trace}
}

// voteEnv is a participant's vote. Deadline marks NO votes cast
// because the deadline discipline fired (lock wait expired, prepare
// arrived late).
type voteEnv struct {
	ID       ID
	Shard    int
	Yes      bool
	Reason   string
	Deadline bool
	Reads    map[string]int64
}

// decisionEnv distributes the logged COMMIT/ABORT decision.
type decisionEnv struct {
	ID     ID
	Commit bool
}

// ackEnv confirms a participant executed the decision (commits are
// acked only after every write applied at the participant's primary,
// so a client-visible commit implies the writes are in the histories).
type ackEnv struct {
	ID    ID
	Shard int
}

// queryEnv is a participant's decision-resolution request for a
// YES-voted transaction whose decision had not arrived by the deadline.
type queryEnv struct {
	ID       ID
	Deadline vtime.Time
}

// loopbackDelay stands in for the network link when the sender and
// receiver are the same node (a transaction whose coordinator group
// also owns some of its keys): the local dispatch cost, well under any
// real link delay.
const loopbackDelay = 10 * vtime.Microsecond

// Plane is the transaction layer over one sharded data plane: a
// coordinator and a participant role per shard group, the clients, and
// the shared retry machinery. Create it with NewPlane, one per
// shard.Router.
type Plane struct {
	eng    *simkern.Engine
	net    *netsim.Network
	router *shard.Router
	// coordPort, partPort and respPort scope the plane's wire protocol
	// per shard set, so coexisting data planes do not collide.
	coordPort, partPort, respPort string

	coords  []*Coordinator
	parts   []*Participant
	clients []*Client

	// sess runs the retry discipline for every role of the plane
	// (client submissions, PREPARE/decision/query loops) — one engine,
	// poked by view installs and partition heals.
	sess *session.Engine
	// groupCommit batches the coordinators' decision-log submissions
	// (zero value: every decision its own replicated round).
	groupCommit session.Params
}

// NewPlane builds the transaction layer over a router's shard groups:
// one coordinator and one participant role per group, wired so that
// any view install or partition heal re-probes parked work.
func NewPlane(eng *simkern.Engine, net *netsim.Network, router *shard.Router, name string) *Plane {
	p := &Plane{
		eng:    eng,
		net:    net,
		router: router,
		sess:   session.New(eng),

		coordPort: "txn." + name + ".coord",
		partPort:  "txn." + name + ".part",
		respPort:  "txn." + name + ".resp",
	}
	for i, g := range router.Groups() {
		p.coords = append(p.coords, newCoordinator(p, g, i))
		p.parts = append(p.parts, newParticipant(p, g, i))
	}
	for _, g := range router.Groups() {
		p.sess.WireViews(g.Membership())
	}
	p.sess.WireHeals(net)
	return p
}

// SetGroupCommit sets the coordinator decision-log batching knobs
// (call before transactions run; the zero value keeps one replicated
// round per decision).
func (p *Plane) SetGroupCommit(params session.Params) { p.groupCommit = params }

// Coordinators returns the per-shard coordinator roles, ring order.
func (p *Plane) Coordinators() []*Coordinator { return append([]*Coordinator(nil), p.coords...) }

// Participants returns the per-shard participant roles, ring order.
func (p *Plane) Participants() []*Participant { return append([]*Participant(nil), p.parts...) }

// Clients returns the transaction clients, creation order.
func (p *Plane) Clients() []*Client { return append([]*Client(nil), p.clients...) }

// coordShard returns the coordinator shard index for a transaction:
// its id hashed on the existing ring (pinned key routes do not apply —
// coordinator placement is not key ownership).
func (p *Plane) coordShard(id ID) int {
	var buf [64]byte
	return p.router.Ring().Shard(string(id.key(buf[:0])))
}

// record logs one protocol event about transaction id. The subject is
// rendered only for a record the log keeps; a refused one is still
// offered, so the log counts it as dropped.
func (p *Plane) record(kind monitor.Kind, node int, id ID, format string, args ...any) {
	subject := ""
	if p.eng.Log().Keeps(kind) {
		subject = id.String()
	}
	p.eng.Recordf(kind, node, subject, format, args...)
}

// send transmits one protocol message, falling back to a loopback
// dispatch after loopbackDelay (netsim has no self-links) when sender
// and receiver are the same node.
func (p *Plane) send(from, to int, port string, payload any, size int) {
	if from != to {
		_, _ = p.net.Send(from, to, port, payload, size)
		return
	}
	p.net.LocalAfter(loopbackDelay, from, to, port, payload, size)
}
