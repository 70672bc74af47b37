package txn

import (
	"cmp"
	"fmt"
	"maps"
	"slices"

	"hades/internal/eventq"
	"hades/internal/monitor"
	"hades/internal/netsim"
	"hades/internal/replication"
	"hades/internal/session"
	"hades/internal/shard"
	"hades/internal/trace"
	"hades/internal/vtime"
)

// CoordStats counts one coordinator shard's outcomes.
type CoordStats struct {
	// Begins counts transaction submissions accepted (first receipt).
	Begins int
	// Commits and Aborts count decisions; DeadlineAborts the subset
	// aborted because the deadline passed undecided.
	Commits        int
	Aborts         int
	DeadlineAborts int
	// Queries counts participant decision-resolution requests served.
	Queries int
}

// partState tracks one participant shard through a transaction.
type partState struct {
	shard int
	ops   []Op
	voted bool
	yes   bool
	acked bool
	// call is the live loop towards the shard: PREPARE until the vote or
	// the decision, then the decision until the ack (never both at once).
	call session.Handle
	// prepSpan times PREPARE-to-vote; decSpan times decision-to-ack.
	prepSpan trace.SpanRef
	decSpan  trace.SpanRef
}

// coordTxn is one transaction's coordinator-side state. It lives on the
// (conceptually replicated) role object shared by the group's replicas;
// the decision itself is additionally logged through the replicated
// machine.
type coordTxn struct {
	c        *Coordinator
	id       ID
	deadline vtime.Time
	client   int
	attempt  int
	parts    []partState // ascending shard order (deterministic sends)
	reads    map[string]int64

	decided     bool
	commit      bool
	reason      string
	byDeadline  bool
	distributed bool

	// trace is the transaction's causal trace (shipped in by the client's
	// submission); logSpan times the replicated decision-log round.
	trace   trace.Ref
	logSpan trace.SpanRef
}

// part returns the participant state of one shard index.
func (ct *coordTxn) part(idx int) *partState {
	for i := range ct.parts {
		if ct.parts[i].shard == idx {
			return &ct.parts[i]
		}
	}
	return nil
}

// Fire is the transaction's deadline timer: votes still incomplete at
// the deadline abort it.
func (ct *coordTxn) Fire(uint64) {
	if !ct.decided {
		ct.c.abortByDeadline(ct, "deadline: votes incomplete")
	}
}

// A coordinator loop's payload: the part's index, shifted, with the
// loop's kind in the low bit.
const (
	loopPrepare uint64 = iota
	loopDecision
)

// loop is the payload of the kind loop towards a transaction's i-th
// part.
func loop(i int, kind uint64) uint64 { return uint64(i)<<1 | kind }

// Send fires one attempt of loop n towards its shard's current
// primary: a PREPARE or a decision.
func (ct *coordTxn) Send(n uint64, _ int) {
	c, ps := ct.c, &ct.parts[n>>1]
	from := c.g.Replication().Primary()
	to := c.p.router.Groups()[ps.shard].Replication().Primary()
	if n&1 == loopPrepare {
		c.p.record(monitor.KindPrepare, from, ct.id, "-> shard %d (n%d)", ps.shard, to)
		env := prepareEnv{ID: ct.id, Ops: ps.ops, Deadline: ct.deadline, Coord: c.shard, Trace: ct.trace}
		c.p.send(from, to, c.p.partPort, env, 48)
		return
	}
	c.p.send(from, to, c.p.partPort, decisionEnv{ID: ct.id, Commit: ct.commit}, 24)
}

// Label names loop n ("prep.t6.3.s2", "dec.t6.3.s2").
func (ct *coordTxn) Label(n uint64) string {
	kind := "prep"
	if n&1 == loopDecision {
		kind = "dec"
	}
	return loopLabel(kind, ct.id, ct.parts[n>>1].shard)
}

// splitByShard groups ops by owning shard: one partState per shard, in
// ascending shard order, each holding its ops in their original order.
// The states share one array and their ops one more.
func splitByShard(ops []Op) []partState {
	grouped := slices.Clone(ops)
	slices.SortStableFunc(grouped, func(a, b Op) int { return cmp.Compare(a.Shard, b.Shard) })
	n := 0
	for i := range grouped {
		if i == 0 || grouped[i].Shard != grouped[i-1].Shard {
			n++
		}
	}
	parts := make([]partState, 0, n)
	for lo := 0; lo < len(grouped); {
		hi := lo + 1
		for hi < len(grouped) && grouped[hi].Shard == grouped[lo].Shard {
			hi++
		}
		parts = append(parts, partState{shard: grouped[lo].Shard, ops: grouped[lo:hi:hi]})
		lo = hi
	}
	return parts
}

// logRound is one group-commit round of the decision log: left counts
// its decisions not yet applied anywhere. The first apply of its last
// decision retires the round (gc.Complete), releasing the next
// coalesced batch.
type logRound struct {
	c    *Coordinator
	left int
}

// decisionEntry is one decision on its way into the replicated log: an
// item of the group-commit batcher until its round flushes, then the
// replication.Owner its applies come back to (the batcher hands each
// round a slice of its own, so the entries stay where they are). logged
// is set at its first apply anywhere.
type decisionEntry struct {
	round  *logRound
	id     ID
	commit bool
	logged bool
}

// Coordinator is the transaction-coordinator role of one shard group:
// it accepts client submissions for transactions hashed onto its
// shard, drives PREPARE/COMMIT/ABORT, and logs every decision through
// the group's replicated machine before distributing it.
type Coordinator struct {
	p     *Plane
	g     *shard.Group
	shard int

	pending map[ID]*coordTxn
	// decided mirrors the replicated decision log at every replica:
	// node → transaction → commit. Maintained from the decision entries'
	// applies (so it survives primary failover — followers applied the
	// same entries) and shipped to rejoining replicas through the
	// membership state transfer.
	decided map[int]map[ID]bool
	// gc group-commits the decision log: one replicated round carries
	// many COMMIT/ABORT records (built lazily from the plane's knobs).
	gc *session.Batcher[decisionEntry]

	// Stats counts outcomes for the harness.
	Stats CoordStats
	// GroupCommits counts decision-log rounds submitted; with batching
	// on, GroupCommits < Commits+Aborts measures the amortization.
	GroupCommits int
	// MaxDecisionBatch is the largest decision batch logged in one round.
	MaxDecisionBatch int
}

// newCoordinator builds the coordinator role of one shard group and
// binds its port on every replica.
func newCoordinator(p *Plane, g *shard.Group, idx int) *Coordinator {
	c := &Coordinator{
		p:       p,
		g:       g,
		shard:   idx,
		pending: make(map[ID]*coordTxn),
		decided: make(map[int]map[ID]bool),
	}
	// The metrics plane's decision counters read Stats; the abort rate
	// is the per-interval delta of txn.aborts.
	m := p.eng.Metrics()
	m.CounterFunc("txn.commits", func() int64 { return int64(c.Stats.Commits) })
	m.CounterFunc("txn.aborts", func() int64 { return int64(c.Stats.Aborts) })
	for _, n := range g.Nodes() {
		node := n
		p.net.Bind(node, p.coordPort, func(m *netsim.Message) { c.handle(node, m) })
	}
	// A rejoining replica missed the decision entries applied while it
	// was away; the join/merge state transfer ships the mirror with the
	// rest of the group state.
	g.Membership().RegisterState("txn."+g.Name(), c.snapshotDecided, c.restoreDecided)
	return c
}

// snapshotDecided and restoreDecided move the decision mirror with the
// membership state-transfer path (donor's view → joiner).
func (c *Coordinator) snapshotDecided(donor, joiner int) any {
	if c.decided[joiner] == nil && c.g.Replication().Machine(joiner) == nil {
		return nil
	}
	src := c.g.Replication().Primary()
	if c.p.net.NodeDown(src) {
		src = donor
	}
	return maps.Clone(c.decided[src])
}

func (c *Coordinator) restoreDecided(node int, data any) {
	if d, ok := data.(map[ID]bool); ok {
		c.decided[node] = maps.Clone(d)
	}
}

// handle dispatches one protocol message arriving at replica node.
func (c *Coordinator) handle(node int, m *netsim.Message) {
	if c.p.net.NodeDown(node) {
		return
	}
	switch env := m.Payload.(type) {
	case beginEnv:
		c.handleBegin(node, m.From, env)
	case voteEnv:
		c.handleVote(node, env)
	case ackEnv:
		c.handleAck(env)
	case queryEnv:
		c.handleQuery(node, m.From, env)
	}
}

// handleBegin serves one client submission (or retry) at replica node.
func (c *Coordinator) handleBegin(node, from int, env beginEnv) {
	switch verdict, primary := c.g.Gate(node); verdict { // never Down: handle dropped that
	case shard.NoQuorum:
		c.p.send(node, from, c.p.respPort, outcomeEnv{ID: env.ID, Attempt: env.Attempt, Kind: respBlocked}, 32)
		return
	case shard.NotPrimary:
		c.p.send(node, from, c.p.respPort, outcomeEnv{ID: env.ID, Attempt: env.Attempt, Kind: respRedirect, Primary: primary}, 32)
		return
	}
	ct := c.pending[env.ID]
	if ct == nil {
		ct = c.admit(env)
	} else {
		ct.client, ct.attempt = env.Client, env.Attempt
	}
	// Reply only once the decision has both applied in the replicated
	// log (distributed is set at its first apply — log-then-send) and,
	// for commits, been acknowledged by every participant. A retry
	// landing in the submit-to-apply window gets no answer and retries.
	if ct.decided && ct.distributed && ct.replyable() {
		c.reply(node, ct)
	}
}

// replyable reports whether the outcome may be released to the client:
// aborts immediately, commits only once every participant acknowledged
// its writes applied — so a client-visible commit implies the writes
// are in all owning shards' histories, the invariant Verify audits.
func (ct *coordTxn) replyable() bool {
	if !ct.commit {
		return true
	}
	for i := range ct.parts {
		if !ct.parts[i].acked {
			return false
		}
	}
	return true
}

// admit registers one fresh transaction and starts its two-phase
// commit — or aborts it immediately when its deadline already passed
// (deadline-aware admission: locks are never acquired for a
// transaction that cannot commit in time).
func (c *Coordinator) admit(env beginEnv) *coordTxn {
	ct := &coordTxn{
		c:        c,
		id:       env.ID,
		deadline: env.Deadline,
		client:   env.Client,
		attempt:  env.Attempt,
		parts:    splitByShard(env.Ops),
		trace:    env.Trace,
	}
	c.pending[env.ID] = ct
	c.Stats.Begins++
	now := c.p.eng.Now()
	if !now.Before(ct.deadline) {
		c.abortByDeadline(ct, "deadline passed before prepare")
		return ct
	}
	for i := range ct.parts {
		c.sendPrepare(ct, i)
	}
	c.p.eng.Arm(ct.deadline, eventq.ClassApp, ct, 0)
	return ct
}

// sendPrepare starts the retrying PREPARE loop towards ct's i-th
// participant shard's current primary.
func (c *Coordinator) sendPrepare(ct *coordTxn, i int) {
	ps := &ct.parts[i]
	ps.prepSpan = ct.trace.Span(c.p.parts[ps.shard].spanPrepare, trace.LayerWire)
	ps.call = c.p.sess.Start(ct, loop(i, loopPrepare), c.g.Replication().Primary(), nil)
}

// handleVote records one participant vote.
func (c *Coordinator) handleVote(node int, env voteEnv) {
	ct := c.pending[env.ID]
	if ct == nil || ct.decided {
		return
	}
	ps := ct.part(env.Shard)
	if ps == nil || ps.voted {
		return
	}
	ps.voted, ps.yes = true, env.Yes
	c.p.sess.Finish(ps.call)
	ps.prepSpan.End()
	// The first vote's map is adopted, not copied: each vote builds a
	// fresh one (Participant.vote), and a repeat from the same shard is
	// dropped above before anything reads it.
	if ct.reads == nil {
		ct.reads = env.Reads // no reads, no map
	} else {
		maps.Copy(ct.reads, env.Reads)
	}
	if !env.Yes {
		ct.byDeadline = env.Deadline
		c.decide(ct, false, fmt.Sprintf("shard %d voted no: %s", env.Shard, env.Reason))
		return
	}
	for i := range ct.parts {
		if !ct.parts[i].voted || !ct.parts[i].yes {
			return
		}
	}
	if c.p.eng.Now().Before(ct.deadline) {
		c.decide(ct, true, "")
	} else {
		c.abortByDeadline(ct, "deadline: unanimous vote arrived late")
	}
}

// abortByDeadline is decide(false) with the structured deadline cause.
func (c *Coordinator) abortByDeadline(ct *coordTxn, reason string) {
	if !ct.decided {
		ct.byDeadline = true
	}
	c.decide(ct, false, reason)
}

// decide fixes the transaction's outcome exactly once: the decision is
// logged through the group's replicated machine (SubmitTagged — the
// dedup tag makes it idempotent, checkpoints and state transfers carry
// the table) and distributed only after the log entry applies locally.
func (c *Coordinator) decide(ct *coordTxn, commit bool, reason string) {
	if ct.decided {
		return
	}
	ct.decided, ct.commit, ct.reason = true, commit, reason
	for i := range ct.parts {
		c.p.sess.Finish(ct.parts[i].call) // a PREPARE loop still waiting for its vote
	}
	verdict := "abort"
	if commit {
		verdict = "commit"
		c.Stats.Commits++
	} else {
		c.Stats.Aborts++
		if ct.byDeadline {
			c.Stats.DeadlineAborts++
		}
	}
	c.p.record(monitor.KindDecide, c.g.Replication().Primary(), ct.id, "%s %s", verdict, reason)
	ct.logSpan = ct.trace.Span("2pc.decision.log", trace.LayerReplicate)
	c.logDecision(decisionEntry{id: ct.id, commit: commit})
}

// logDecision routes one decision into the replicated log through the
// group-commit batcher. The policy is the classic one: an idle log
// flushes the decision at once (zero added latency over a direct
// submit), and decisions arriving while a round is in flight coalesce
// into the next round, released when the in-flight round's entries
// apply — so amortization appears exactly when the log is loaded. The
// flush timer is only the fallback for a round lost to a crash, after
// which the log degrades to timer-paced rounds rather than wedging.
func (c *Coordinator) logDecision(e decisionEntry) {
	if c.gc == nil {
		gc := c.p.groupCommit
		gc.PipelineDepth = 1
		c.gc = session.NewBatcher[decisionEntry](c.p.eng, gc,
			fmt.Sprintf("txn.%s.gc", c.g.Name()), c.g.Replication().Primary(),
			func(lane string, entries []decisionEntry) {
				round := &logRound{c: c, left: len(entries)}
				batch := make([]replication.BatchItem, len(entries))
				for i := range entries {
					e := &entries[i]
					e.round = round
					cmd := int64(e.id.Num) * 2
					if e.commit {
						cmd++
					}
					batch[i] = replication.BatchItem{
						Cmd:   cmd,
						Tag:   replication.Tag(replication.TagTxnDecision, uint64(e.id.Client), e.id.Num),
						Owner: e,
					}
				}
				c.g.Replication().SubmitOwned(c.g.Replication().Primary(), batch)
				c.GroupCommits++
				if len(entries) > c.MaxDecisionBatch {
					c.MaxDecisionBatch = len(entries)
				}
			})
		c.gc.EagerIdle = true
	}
	c.gc.Add("dec", e)
}

// Applied mirrors the decision at every replica that applies it and, on
// the first apply anywhere, distributes it (log-then-send: the decision
// is in the replicated lineage before any participant acts).
func (e *decisionEntry) Applied(node int, _ int64) {
	c := e.round.c
	d := c.decided[node]
	if d == nil {
		d = make(map[ID]bool)
		c.decided[node] = d
	}
	d[e.id] = e.commit
	// First apply of this decision anywhere retires it from its
	// group-commit round; the round's last retirement frees the log for
	// the next coalesced batch.
	if !e.logged {
		e.logged = true
		e.round.left--
		if e.round.left == 0 {
			c.gc.Complete("dec")
		}
	}
	ct := c.pending[e.id]
	if ct != nil && ct.decided && !ct.distributed {
		ct.logSpan.End()
		c.distribute(ct)
		if ct.replyable() {
			c.reply(c.g.Replication().Primary(), ct)
		}
	}
}

// Replied: the decision's answer is its apply, not the primary's reply.
func (*decisionEntry) Replied(int64, bool) {}

// distribute starts the retrying decision sends towards every
// participant and, for aborts, towards any shard that never voted. Its
// one caller runs it once, at the decision's first apply.
func (c *Coordinator) distribute(ct *coordTxn) {
	ct.distributed = true
	for i := range ct.parts {
		p := &ct.parts[i]
		p.decSpan = ct.trace.Span(c.p.parts[p.shard].spanDecide, trace.LayerWire)
		p.call = c.p.sess.Start(ct, loop(i, loopDecision), c.g.Replication().Primary(), nil)
	}
}

// reply answers the transaction's client from the decided state. Every
// reply ships the one reads map: nothing writes it after the decision
// (handleVote returns once ct.decided), and the client keeps only the
// first outcome it receives.
func (c *Coordinator) reply(from int, ct *coordTxn) {
	env := outcomeEnv{
		ID:        ct.id,
		Attempt:   ct.attempt,
		Kind:      respOutcome,
		Committed: ct.commit,
		Reason:    ct.reason,
		Deadline:  ct.byDeadline,
		Reads:     ct.reads, // shared: frozen at the decision
	}
	c.p.send(from, ct.client, c.p.respPort, env, 40)
}

// handleAck retires one participant's decision loop. Commit acks also
// complete the client reply path: the coordinator re-answers the
// client once every participant acknowledged (so a committed outcome
// implies the writes are applied in the owning histories).
func (c *Coordinator) handleAck(env ackEnv) {
	ct := c.pending[env.ID]
	if ct == nil {
		return
	}
	ps := ct.part(env.Shard)
	if ps == nil || ps.acked {
		return
	}
	ps.acked = true
	c.p.sess.Finish(ps.call)
	ps.decSpan.End()
	for i := range ct.parts {
		if !ct.parts[i].acked {
			return
		}
	}
	c.reply(c.g.Replication().Primary(), ct)
}

// handleQuery serves a participant's decision-resolution request: the
// decided verdict if one exists anywhere in this replica's mirror (or
// the shared pending table), a presumed abort if the deadline passed
// undecided — never an answer before the deadline.
func (c *Coordinator) handleQuery(node, from int, env queryEnv) {
	c.Stats.Queries++
	if commit, ok := c.decided[node][env.ID]; ok {
		c.p.send(node, from, c.p.partPort, decisionEnv{ID: env.ID, Commit: commit}, 24)
		return
	}
	ct := c.pending[env.ID]
	if ct != nil {
		if ct.decided {
			if ct.distributed {
				// Applied in the replicated log (log-then-send); the
				// submit-to-apply window answers nothing — the query
				// loop retries.
				c.p.send(node, from, c.p.partPort, decisionEnv{ID: env.ID, Commit: ct.commit}, 24)
			}
			return
		}
		if !c.p.eng.Now().Before(ct.deadline) {
			c.decide(ct, false, "deadline: resolved by participant query")
		}
		return
	}
	// Unknown transaction past its deadline: presumed abort (the
	// decision log holds no commit, so no participant applied).
	if !c.p.eng.Now().Before(env.Deadline) {
		c.p.send(node, from, c.p.partPort, decisionEnv{ID: env.ID, Commit: false}, 24)
	}
}
