package txn

import (
	"strconv"

	"hades/internal/eventq"
	"hades/internal/monitor"
	"hades/internal/netsim"
	"hades/internal/session"
	"hades/internal/shard"
	"hades/internal/trace"
	"hades/internal/vtime"
)

// PartStats counts one participant shard's outcomes.
type PartStats struct {
	// Prepares counts distinct transactions prepared here.
	Prepares int
	// LockWaits counts prepares that queued behind a held lock.
	LockWaits int
	// VotesYes and VotesNo count the votes cast.
	VotesYes int
	VotesNo  int
	// Commits and Aborts count decisions executed.
	Commits int
	Aborts  int
	// DeadlineReleases counts YES-voted transactions whose locks were
	// released at the deadline with the decision still pending (the
	// parked-decision resolution path).
	DeadlineReleases int
	// HeldPastDeadline counts lock releases that happened after the
	// owning transaction's deadline — always zero under the protocol's
	// deadline discipline; Verify asserts it.
	HeldPastDeadline int
}

// prepState is one transaction's participant-side state.
type prepState uint8

const (
	// prepWaiting: queued behind a held lock, not yet voted.
	prepWaiting prepState = iota + 1
	// prepHeld: locks acquired, YES voted, decision pending.
	prepHeld
	// prepReleased: YES voted, locks released at the deadline, decision
	// resolution in flight.
	prepReleased
	// prepDone: decision executed (or NO voted).
	prepDone
)

// prep tracks one transaction at one participant shard.
type prep struct {
	pa  *Participant
	id  ID
	ops []Op
	// keys is the lock set: the distinct keys of ops, in op order.
	keys     []string
	deadline vtime.Time
	coord    int
	// writeFloor is the client's write floor as the PREPARE carried it;
	// the transaction's writes carry it into the shard's dedup table.
	writeFloor uint64
	state      prepState
	commit     bool
	// applying counts outstanding write applies; the commit is acked
	// once it reaches zero (writes visibly in the primary's history).
	applying int
	acked    bool
	// call re-queries the decision of a prepare released at its deadline.
	call session.Handle
	// trace is the owning transaction's causal trace; lockSpan times a
	// prepare's wait behind a held lock.
	trace    trace.Ref
	lockSpan trace.SpanRef
}

// Fire is the prepare's deadline timer (see Participant.atDeadline).
func (pr *prep) Fire(uint64) { pr.pa.atDeadline(pr) }

// Send fires one attempt of the prepare's decision query, from the
// shard's primary to the coordinator group's.
func (pr *prep) Send(uint64, int) {
	pa := pr.pa
	from := pa.g.Replication().Primary()
	to := pa.p.router.Groups()[pr.coord].Replication().Primary()
	pa.p.send(from, to, pa.p.coordPort, queryEnv{ID: pr.id, Deadline: pr.deadline}, 32)
}

// Label names the query loop ("query.t6.3.s2").
func (pr *prep) Label(uint64) string { return loopLabel("query", pr.id, pr.pa.shard) }

// WriteApplied retires one of the prepare's writes at its first apply
// (see Participant.writeApplied).
func (pr *prep) WriteApplied(key string, seq uint64) { pr.pa.writeApplied(pr, key, seq) }

// distinctKeys returns the lock set of ops in op order (already
// deterministic: the client recorded ops in call order).
func distinctKeys(ops []Op) []string {
	out := make([]string, 0, len(ops))
	seen := make(map[string]bool, len(ops))
	for _, op := range ops {
		if !seen[op.Key] {
			seen[op.Key] = true
			out = append(out, op.Key)
		}
	}
	return out
}

// overlayVal is one committed write awaiting its apply: its command and
// its client-wide write number, which names the write among its
// client's.
type overlayVal struct {
	cmd    int64
	client int
	seq    uint64
}

// Participant is the transaction-participant role of one shard group:
// it owns the per-key lock table of the keys this shard serves,
// prepares and votes on behalf of the group, executes decisions, and
// never holds a lock past the owning transaction's deadline.
type Participant struct {
	p     *Plane
	g     *shard.Group
	shard int

	// locks maps key → holding transaction; waiters queue in arrival
	// order (grants re-scan it FIFO — deterministic).
	locks   map[string]ID
	waiters []*prep
	preps   map[ID]*prep
	// retired marks the transactions whose prep this shard has retired:
	// a late PREPARE for one is silent and a late decision acked, as
	// the done prep answered them.
	retired idBits
	// overlay holds committed-but-not-yet-applied write values: a
	// waiter granted in the instant a commit releases its locks must
	// read the committed value, not the pre-apply state (the keyed view
	// only updates when the replication apply lands).
	overlay map[string]overlayVal

	// spanPrepare, spanDecide and spanLockWait name the trace spans of
	// this shard's protocol legs, rendered once.
	spanPrepare, spanDecide, spanLockWait string

	// Stats counts outcomes for the harness.
	Stats PartStats
}

// newParticipant builds the participant role of one shard group and
// binds its port on every replica.
func newParticipant(p *Plane, g *shard.Group, idx int) *Participant {
	pa := &Participant{
		p:       p,
		g:       g,
		shard:   idx,
		locks:   make(map[string]ID),
		preps:   make(map[ID]*prep),
		overlay: make(map[string]overlayVal),

		spanPrepare:  "2pc.prepare.s" + strconv.Itoa(idx),
		spanDecide:   "2pc.decide.s" + strconv.Itoa(idx),
		spanLockWait: "lock.wait.s" + strconv.Itoa(idx),
	}
	for _, n := range g.Nodes() {
		node := n
		p.net.Bind(node, p.partPort, func(m *netsim.Message) { pa.handle(node, m) })
	}
	// All participants sample into one gauge: the metrics plane sums
	// per-name funcs, so "txn.lockwait.depth" is the plane-wide count
	// of prepares queued behind a lock.
	p.eng.Metrics().GaugeFunc("txn.lockwait.depth", func() int64 { return int64(len(pa.waiters)) })
	return pa
}

// LockedKeys returns the number of currently held locks (harness and
// Verify use it to assert the end-of-run lock table drained).
func (pa *Participant) LockedKeys() int { return len(pa.locks) }

// Retained returns how many prepares the participant holds: those not
// yet done, and done commits whose writes are still applying.
func (pa *Participant) Retained() int { return len(pa.preps) }

// handle dispatches one protocol message arriving at replica node.
func (pa *Participant) handle(node int, m *netsim.Message) {
	if pa.p.net.NodeDown(node) {
		return
	}
	switch env := m.Payload.(type) {
	case prepareEnv:
		pa.handlePrepare(node, m.From, env)
	case decisionEnv:
		pa.handleDecision(node, m.From, env)
	}
}

// handlePrepare serves one PREPARE (or its retry) at replica node.
// A replica the serving gate refuses stays silent and the coordinator's
// retry loop re-resolves.
func (pa *Participant) handlePrepare(node, from int, env prepareEnv) {
	if verdict, _ := pa.g.Gate(node); verdict != shard.Serve {
		return
	}
	if pa.retired.has(env.ID) {
		return // a done prep cast its vote already
	}
	pr := pa.preps[env.ID]
	if pr != nil {
		// A retry: re-vote for states that already voted (the original
		// vote may have raced a coordinator failover); waiting prepares
		// vote when granted or at their deadline.
		if pr.state == prepHeld || pr.state == prepReleased {
			pa.vote(node, from, pr, true, "", false)
		}
		return
	}
	now := pa.p.eng.Now()
	if !now.Before(env.Deadline) {
		pa.Stats.VotesNo++
		pa.p.send(node, from, pa.p.coordPort,
			voteEnv{ID: env.ID, Shard: pa.shard, Yes: false, Reason: "deadline passed", Deadline: true}, 32)
		return
	}
	pr = &prep{pa: pa, id: env.ID, ops: env.Ops, keys: distinctKeys(env.Ops), deadline: env.Deadline, coord: env.Coord,
		writeFloor: env.WriteFloor, state: prepWaiting, trace: env.Trace}
	pa.preps[env.ID] = pr
	pa.Stats.Prepares++
	if pa.tryAcquire(pr) {
		pa.granted(node, from, pr)
	} else {
		pa.Stats.LockWaits++
		pr.lockSpan = pr.trace.Span(pa.spanLockWait, trace.LayerLock)
		pa.waiters = append(pa.waiters, pr)
		pa.p.record(monitor.KindLockWait, node, pr.id, "shard %d: conflict on %v", pa.shard, pr.keys)
	}
	pa.p.eng.Arm(env.Deadline, eventq.ClassApp, pr, 0)
}

// tryAcquire takes every lock of the prepare if all are free (locks
// are exclusive and all-or-nothing — partial acquisition under a
// deadline regime would just manufacture deadlock windows).
func (pa *Participant) tryAcquire(pr *prep) bool {
	for _, k := range pr.keys {
		if _, held := pa.locks[k]; held {
			return false
		}
	}
	for _, k := range pr.keys {
		pa.locks[k] = pr.id
	}
	return true
}

// granted votes YES for a prepare that holds all its locks, serving
// its reads from the primary's keyed view under those locks.
func (pa *Participant) granted(node, from int, pr *prep) {
	pr.state = prepHeld
	pr.lockSpan.End()
	pa.p.record(monitor.KindPrepare, node, pr.id, "shard %d: locked %v", pa.shard, pr.keys)
	pa.vote(node, from, pr, true, "", false)
}

// vote sends one vote, attaching read results on YES. byDeadline marks
// NO votes forced by the deadline discipline (the structured abort
// cause the client's statistics rely on).
func (pa *Participant) vote(node, from int, pr *prep, yes bool, reason string, byDeadline bool) {
	var reads map[string]int64
	if yes {
		for _, op := range pr.ops {
			if op.Kind == OpRead {
				if reads == nil {
					reads = make(map[string]int64)
				}
				reads[op.Key] = pa.readKey(node, op.Key)
			}
		}
	}
	if yes {
		pa.Stats.VotesYes++
	} else {
		pa.Stats.VotesNo++
	}
	pa.p.send(node, from, pa.p.coordPort,
		voteEnv{ID: pr.id, Shard: pa.shard, Yes: yes, Reason: reason, Deadline: byDeadline, Reads: reads}, 40)
}

// readKey serves one locked read: the last committed write — a
// committed-but-not-yet-applied value from the overlay first, then
// node's applied keyed view.
func (pa *Participant) readKey(node int, key string) int64 {
	if ov, ok := pa.overlay[key]; ok {
		return ov.cmd
	}
	v, _ := pa.g.KeyValue(node, key)
	return v
}

// atDeadline enforces the deadline discipline at this participant:
// a still-waiting prepare votes NO and leaves the queue; a YES-voted
// prepare releases its locks (never holding them into the fault
// window) and parks a decision query against the coordinator group.
func (pa *Participant) atDeadline(pr *prep) {
	switch pr.state {
	case prepWaiting:
		pr.state = prepDone
		pa.removeWaiter(pr)
		pr.lockSpan.End()
		pr.trace.Instant("shard %d: lock wait exceeded deadline", pa.shard)
		pa.Stats.Aborts++
		node := pa.g.Replication().Primary()
		pa.p.record(monitor.KindTxnAbort, node, pr.id, "shard %d: lock wait exceeded deadline", pa.shard)
		coordPrimary := pa.p.router.Groups()[pr.coord].Replication().Primary()
		pa.vote(node, coordPrimary, pr, false, "lock wait exceeded deadline", true)
		pa.retire(pr)
	case prepHeld:
		pa.release(pr)
		pr.state = prepReleased
		pa.Stats.DeadlineReleases++
		pa.p.record(monitor.KindLockWait, pa.g.Replication().Primary(), pr.id,
			"shard %d: released at deadline, decision pending", pa.shard)
		pr.call = pa.p.sess.Start(pr, 0, pa.g.Replication().Primary(), nil)
	}
}

// release frees the prepare's locks, auditing the deadline discipline,
// and re-scans the wait queue.
func (pa *Participant) release(pr *prep) {
	now := pa.p.eng.Now()
	released := false
	for _, k := range pr.keys {
		if pa.locks[k] == pr.id {
			delete(pa.locks, k)
			released = true
		}
	}
	if released && now.After(pr.deadline) {
		pa.Stats.HeldPastDeadline++
	}
	if released {
		pa.grantWaiters()
	}
}

// grantWaiters re-scans the wait queue in arrival order, granting
// every prepare whose lock set became free.
func (pa *Participant) grantWaiters() {
	remaining := pa.waiters[:0]
	for _, w := range pa.waiters {
		if w.state != prepWaiting {
			continue
		}
		if !pa.p.eng.Now().Before(w.deadline) {
			// Its deadline timer votes NO this same instant; granting
			// now would only acquire locks the coordinator is already
			// committed to aborting.
			remaining = append(remaining, w)
			continue
		}
		if pa.tryAcquire(w) {
			node := pa.g.Replication().Primary()
			coordPrimary := pa.p.router.Groups()[w.coord].Replication().Primary()
			pa.granted(node, coordPrimary, w)
			continue
		}
		remaining = append(remaining, w)
	}
	pa.waiters = remaining
}

// removeWaiter drops one prepare from the wait queue.
func (pa *Participant) removeWaiter(pr *prep) {
	remaining := pa.waiters[:0]
	for _, w := range pa.waiters {
		if w != pr {
			remaining = append(remaining, w)
		}
	}
	pa.waiters = remaining
}

// handleDecision executes one COMMIT/ABORT at replica node. Commits
// submit every write into the shard's replicated machine under the
// transaction tag space (idempotent across decision retries) and ack
// only once all writes applied; aborts release and ack immediately.
func (pa *Participant) handleDecision(node, from int, env decisionEnv) {
	if node != pa.g.Replication().Primary() {
		return // the coordinator's retry loop re-resolves the primary
	}
	pr := pa.preps[env.ID]
	if pr == nil {
		// Abort of a transaction never prepared here (prepare lost or
		// refused): nothing to undo. A retired prep was acked or
		// aborted, so it acks again.
		if !env.Commit || pa.retired.has(env.ID) {
			pa.p.send(node, from, pa.p.coordPort, ackEnv{ID: env.ID, Shard: pa.shard}, 24)
		}
		return
	}
	if pr.state == prepDone {
		if pr.acked || !pr.commit {
			pa.p.send(node, from, pa.p.coordPort, ackEnv{ID: env.ID, Shard: pa.shard}, 24)
		}
		return
	}
	prev := pr.state
	pr.state = prepDone
	pr.commit = env.Commit
	pa.p.sess.Finish(pr.call)
	if !env.Commit {
		pa.release(pr)
		pa.Stats.Aborts++
		pa.p.record(monitor.KindTxnAbort, node, pr.id, "shard %d: decision abort", pa.shard)
		pa.p.send(node, from, pa.p.coordPort, ackEnv{ID: env.ID, Shard: pa.shard}, 24)
		pa.retire(pr)
		return
	}
	if prev == prepWaiting {
		// Cannot happen: the coordinator only commits on unanimous YES
		// votes, and this shard never voted. Guard anyway.
		pa.removeWaiter(pr)
	}
	pa.Stats.Commits++
	// Submit the writes (and publish their committed values in the
	// overlay) BEFORE releasing the locks: a waiter granted by the
	// release must read this transaction's committed values, not the
	// pre-apply state.
	for _, op := range pr.ops {
		if op.Kind != OpWrite {
			continue
		}
		pa.g.SubmitKeyed(op.Key, op.Cmd, pr.id.Client, op.Seq, pr.writeFloor, pr.trace, pr)
		pa.overlay[op.Key] = overlayVal{cmd: op.Cmd, client: pr.id.Client, seq: op.Seq}
		pr.applying++
	}
	pa.release(pr)
	if pr.applying == 0 { // read-only at this shard
		pr.acked = true
		pa.p.send(node, from, pa.p.coordPort, ackEnv{ID: env.ID, Shard: pa.shard}, 24)
		pa.retire(pr)
	}
}

// writeApplied retires one outstanding write at its first apply
// anywhere in the group (the keyed view now holds the value, so the
// overlay entry drops, unless a later write on the key replaced it);
// when a transaction's last write lands, the commit is acked to the
// coordinator's current primary.
func (pa *Participant) writeApplied(pr *prep, key string, seq uint64) {
	if ov, ok := pa.overlay[key]; ok && ov.client == pr.id.Client && ov.seq == seq {
		delete(pa.overlay, key)
	}
	if pr.acked {
		return
	}
	pr.applying--
	if pr.applying > 0 {
		return
	}
	pr.acked = true
	from := pa.g.Replication().Primary()
	to := pa.p.router.Groups()[pr.coord].Replication().Primary()
	pa.p.send(from, to, pa.p.coordPort, ackEnv{ID: pr.id, Shard: pa.shard}, 24)
	pa.retire(pr)
}

// retire forgets a done prep that is acked or no commit: every late
// copy it could still draw has the answer its retired bit gives.
func (pa *Participant) retire(pr *prep) {
	delete(pa.preps, pr.id)
	pa.retired.add(pr.id)
}

// idBits is a set of transaction ids, one bit each, indexed by client
// node and then by transaction number: what a retired prep leaves.
type idBits [][]uint64

// add puts id in the set.
func (b *idBits) add(id ID) {
	c, w := id.Client, id.Num/64
	if c >= len(*b) {
		*b = append(*b, make([][]uint64, c+1-len(*b))...)
	}
	row := (*b)[c]
	for w >= uint64(len(row)) {
		row = append(row, 0)
	}
	row[w] |= 1 << (id.Num % 64)
	(*b)[c] = row
}

// has reports whether id is in the set.
func (b idBits) has(id ID) bool {
	if id.Client >= len(b) {
		return false
	}
	row, w := b[id.Client], id.Num/64
	return w < uint64(len(row)) && row[w]&(1<<(id.Num%64)) != 0
}
