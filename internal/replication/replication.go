// Package replication implements the replication services of §2.2.1:
// passive, active and semi-active replication in the sense of Poledna
// [Pol96], over the simulated network, the view-synchronous membership
// service and the stable storage service.
//
// The replicated object is a deterministic state machine
// (StateMachine): requests are int64 commands, state an int64 value —
// deliberately minimal so the experiments isolate the *replication
// protocol* costs (checkpointing, voting, failover latency, lost work)
// rather than application behaviour:
//
//   - Active: every replica executes every request; the client side
//     votes on the replies (majority), masking crash and value faults
//     with zero failover latency.
//   - Passive: only the primary executes; it checkpoints state to the
//     backups (and stable storage) every CheckpointEvery requests. On
//     primary crash the next backup is promoted, resuming from the
//     last checkpoint — bounded failover latency, but work since the
//     checkpoint is lost and must be resubmitted.
//   - Semi-active: the leader executes and broadcasts its decision;
//     followers execute the same requests in the same order (no
//     voting). On leader crash a follower takes over with no lost
//     state, at the price of every replica doing the work.
//
// Failover is driven by *installed membership views*, not by raw
// per-observer detector suspicions: promotion happens when a view that
// excludes the current primary installs, so every replica promotes the
// same backup in the same view at the same instant (the view-synchrony
// property internal/membership provides). Leadership is sticky — a
// rejoining former primary re-enters as a backup, brought up to date by
// the membership join protocol's state transfer (the group registers
// its state machine, persisted through the stable store).
//
// View boundaries also flush the replication traffic itself: requests
// and checkpoints carry the sender's installed view, and a copy from a
// member of an older view that arrives after the receiver installed a
// newer one is discarded (counted in Flushed) instead of applied — no
// replica acts on a pre-partition update the new primary never saw,
// the virtual-synchrony discipline at the state-machine layer.
//
// The exactly-once dedup table rides with the state on every checkpoint
// and join transfer, but its durability comes from replication alone:
// what a checkpoint leaves on stable storage is the state (State,
// Applied, the view and which table prefix it covers — ckptRecord), not
// the table.
//
// Several planes write into one group's machine, so the table's key
// space is partitioned here and nowhere else (Tag is the only
// constructor of a non-zero ClientSeq):
//
//	space           owner                        id               seq                           floor
//	TagKV           shard.Group.handleRequest    client node      the client's op number        the client's
//	TagTxnWrite     shard.Group.SubmitKeyed      txn client node  the client-wide write number  the client's write floor, via the participant
//	TagTxnDecision  txn.Coordinator.decide       txn client node  the transaction number        the client's transaction floor, via the coordinator
//	TagPubSub       pubsub.Plane.handlePub       publisher id     the sample number             none yet
//
// A writer's floor (BatchItem.Floor) is the highest seq at or below
// which it has retired every request it numbered — acked or given up —
// so it will send none of them again (the client sessions of Ongaro's
// Raft dissertation, §6.3). A replica keeps one floor per writer, raises
// it at every item that carries one and forgets the writer's entries at
// or below it, so the table holds only what a writer may still retry; a
// late copy of a retired request at or below the floor is answered as a
// dedup hit. Floors move with the table, on checkpoints and transfers. A
// space whose writers send floor 0 keeps every entry for the run.
//
// A dedup hit answers from the table and never reaches the op's Owner's
// Applied: to the machine it is a retry of work already done. That is
// what makes a collision between two writers silent rather than loud —
// the second writer's request is "answered", its plane never sees an
// apply, and no replica diverges — and why the spaces must be disjoint
// by construction, not by convention.
//
// Each submitted op is one record (op), shared by every replica's copy
// of its batch — the single-process simulation's wire format is the
// pointer. The record carries the plane's Owner, which the group calls
// back at each fresh apply and at the authoritative answer, and the
// group's own per-op state (answered, the active style's votes). No
// table keyed by request id exists on either side: a record is garbage
// once the last message and thread that carry its batch are.
package replication

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"strconv"

	"hades/internal/membership"
	"hades/internal/metrics"
	"hades/internal/monitor"
	"hades/internal/netsim"
	"hades/internal/simkern"
	"hades/internal/storage"
	"hades/internal/vtime"
)

// Style selects the replication protocol.
type Style uint8

// Replication styles [Pol96].
const (
	// Active replication: all replicas execute, outputs voted.
	Active Style = iota + 1
	// Passive replication: primary executes, backups hold checkpoints.
	Passive
	// SemiActive replication: leader decides, followers mirror.
	SemiActive
)

// String returns the style name.
func (s Style) String() string {
	switch s {
	case Active:
		return "active"
	case Passive:
		return "passive"
	case SemiActive:
		return "semi-active"
	default:
		return "unknown"
	}
}

// ClientSeq identifies one client request for exactly-once
// deduplication: the client's identity plus its per-client sequence
// number. The zero value tags untracked (at-least-once) requests. Build
// one with Tag.
type ClientSeq struct {
	Client uint64
	Seq    uint64
}

// TagSpace names one plane's region of a group's dedup table (the table
// in the package comment).
type TagSpace uint8

// The tag spaces, one per kind of writer into a replicated machine.
const (
	TagKV TagSpace = iota
	TagTxnWrite
	TagTxnDecision
	TagPubSub
	numTagSpaces
)

// tagPrefix is each space's bits of ClientSeq.Client above the low 32,
// which hold id+1. The first three are what their planes wrote before
// the namespace had an owner, so old and new runs key their tables
// alike.
var tagPrefix = [numTagSpaces]uint64{
	TagKV:          0,
	TagTxnWrite:    1 << 32,
	TagTxnDecision: 1 << 33,
	TagPubSub:      1 << 34,
}

// maxTagID is the largest id a space holds: id+1 must fit the low 32
// bits.
const maxTagID = 1<<32 - 2

// Tag builds the dedup tag of request seq from writer id in space — the
// one place a ClientSeq is laid out, so two planes sharing a machine
// cannot pick the same key. It panics on an unknown space or an id past
// maxTagID: wrapping either would land in another writer's region.
func Tag(space TagSpace, id, seq uint64) ClientSeq {
	if space >= numTagSpaces || id > maxTagID {
		panic(fmt.Sprintf("replication: tag (space %d, id %d) outside the namespace", space, id))
	}
	return ClientSeq{Client: tagPrefix[space] | (id + 1), Seq: seq}
}

// StateMachine is the deterministic replicated service: state' = f(state,
// cmd). Value faults are injected by corrupting one replica's Apply.
type StateMachine struct {
	State   int64
	Applied int64
	// seen is the replicated deduplication table: the result of every
	// tagged request this machine has applied above its writer's floor,
	// so a retried request (client timeout racing a slow reply, a
	// redirect after failover) is answered from the cache instead of
	// applied twice. It moves with the state: checkpoints and join state
	// transfers carry it, so exactly-once survives exactly as far as the
	// state itself does.
	seen map[ClientSeq]int64
	// floors holds each writer's floor; the rows are shared with the
	// checkpoints and transfers that carried them until floorsOwn says
	// this machine copied them.
	floors    floorTable
	floorsOwn bool
	// journal lists seen in apply order, entries since forgotten
	// included until it compacts. Only replicas of a passive group keep
	// it, so that a checkpoint ships the table as a slice header and a
	// backup inserts just the suffix it lacks. epoch names the journal's
	// lineage: two journals of one epoch are prefixes of one another, so
	// (epoch, length) identifies a table exactly. owns is set on the
	// machine that minted the epoch, the only one whose appends may land
	// in the journal's backing array; every other holder has a slice
	// clipped to its length, and takes a fresh epoch (and, through
	// append, a fresh array) before it adds an entry.
	journal []seenEntry
	epoch   uint64
	owns    bool
	// Corrupt, when non-nil, perturbs results (a coherent value
	// failure, §2.1).
	Corrupt func(int64) int64
}

// seenEntry is one dedup-table entry as the journal and the wire carry it.
type seenEntry struct {
	Tag    ClientSeq
	Result int64
}

// Lookup returns the cached result of a tagged request this machine's
// state already reflects.
func (sm *StateMachine) Lookup(tag ClientSeq) (result int64, ok bool) {
	result, ok = sm.seen[tag]
	return result, ok
}

// floorTable holds each writer's floor, a row per tag space indexed by
// writer id: a table of writers, not of requests, grown to the largest
// id that has sent a floor — a kv client's node number. A space none of
// whose writers sends one keeps a nil row.
type floorTable [numTagSpaces][]uint64

// writer returns the space and id Tag laid tag out from.
func (t ClientSeq) writer() (TagSpace, uint64) {
	sp := TagKV
	if hi := t.Client >> 32; hi != 0 {
		sp = TagSpace(bits.TrailingZeros64(hi) + 1)
	}
	return sp, t.Client&(1<<32-1) - 1
}

// floor returns the floor of tag's writer, 0 if it never sent one.
func (sm *StateMachine) floor(tag ClientSeq) uint64 {
	sp, id := tag.writer()
	if row := sm.floors[sp]; id < uint64(len(row)) {
		return row[id]
	}
	return 0
}

// retired reports whether tag lies at or below its writer's floor.
func (sm *StateMachine) retired(tag ClientSeq) bool {
	f := sm.floor(tag)
	return f > 0 && tag.Seq <= f
}

// raiseFloor lifts the floor of tag's writer to f, if that is higher,
// and forgets the writer's entries at or below it: one probe per seq
// the floor passes, whichever shard the writer sent it to.
func (sm *StateMachine) raiseFloor(tag ClientSeq, f uint64) {
	old := sm.floor(tag)
	if f <= old {
		return
	}
	if !sm.floorsOwn {
		for sp, row := range sm.floors {
			sm.floors[sp] = slices.Clone(row)
		}
		sm.floorsOwn = true
	}
	sp, id := tag.writer()
	if row := sm.floors[sp]; id >= uint64(len(row)) {
		sm.floors[sp] = append(row, make([]uint64, id+1-uint64(len(row)))...)
	}
	sm.floors[sp][id] = f
	sm.forget(tag.Client, old, f)
}

// forget drops writer client's entries with seq in (from, to].
func (sm *StateMachine) forget(client, from, to uint64) {
	if len(sm.seen) == 0 {
		return
	}
	for s := from + 1; s <= to; s++ {
		delete(sm.seen, ClientSeq{Client: client, Seq: s})
	}
}

// Apply executes one command.
func (sm *StateMachine) Apply(cmd int64) int64 {
	sm.State = sm.State*31 + cmd
	sm.Applied++
	if sm.Corrupt != nil {
		return sm.Corrupt(sm.State)
	}
	return sm.State
}

// Config parameterises a replica group.
type Config struct {
	// Name scopes the group's network ports.
	Name string
	// Replicas lists the replica nodes, in promotion order.
	Replicas []int
	// Style selects the protocol.
	Style Style
	// WExec is the CPU cost of executing one request on a replica.
	WExec vtime.Duration
	// CheckpointEvery is the passive checkpoint interval in requests.
	CheckpointEvery int
	// StorageLatency is the stable-store per-copy write latency.
	StorageLatency vtime.Duration
}

// Owner is the plane-side record of one submitted op: the group hands
// the op back to it instead of announcing a bare request id.
type Owner interface {
	// Applied runs at every replica that freshly applies the op (a dedup
	// hit is not an apply), in apply order, before the replica replies.
	Applied(node int, result int64)
	// Replied runs at every authoritative answer: each reply of the
	// primary (a retry straddling a failover can draw two) or the active
	// style's vote, once.
	Replied(result int64, unanimous bool)
}

// Group is a running replica group.
type Group struct {
	eng *simkern.Engine
	net *netsim.Network
	mem *membership.Service
	cfg Config

	machines map[int]*StateMachine
	stores   map[int]*storage.Store
	primary  int // index into cfg.Replicas
	nextReq  uint64
	// epochs numbers the dedup-journal lineages minted so far (passive).
	epochs uint64

	// Port names and the stable-store key, built once: they are used on
	// every send and every checkpoint.
	reqPort, ckptPort, ckptKey string
	// stored is the completion callback of every stable-store write.
	stored func(error)

	// onReply answers the ops submitted without an Owner.
	onReply func(reqID uint64, result int64, unanimous bool)

	// sinceCheckpoint counts requests since the last passive checkpoint.
	sinceCheckpoint int

	// Failovers records promotion instants for the harness.
	Failovers []Failover
	// LostWork counts requests lost to a passive failover.
	LostWork int64
	// Flushed counts old-view requests/checkpoints discarded at the
	// view boundary (virtual-synchrony flushing).
	Flushed int
	// Duplicates counts tagged requests suppressed by the replicated
	// dedup table (answered from cache instead of re-applied).
	Duplicates int
	// StoreErrors counts checkpoint writes the stable store refused or
	// tore (a crashed store, an unencodable record).
	StoreErrors int

	// Round occupancy, sampled by the metrics plane: open counts
	// requests submitted but not yet authoritatively answered (votes
	// completed / primary replies landed). Requests whose answer never
	// lands — lost to a passive failover or an unreachable majority —
	// stay counted, so a fault window shows as a plateau in the
	// "repl.open" gauge rather than vanishing.
	open   int
	mRound *metrics.Counter

	// runs recycles the execution records of finished batches.
	runs *execRun
}

// execRun is one batch executing at one replica: its thread, by value,
// whose owner it is.
type execRun struct {
	g    *Group
	th   simkern.Thread
	node int
	id   uint64
	msg  batchMsg
	next *execRun
}

// ThreadName names the execution thread from node and id, when a kept
// record reads it.
func (r *execRun) ThreadName() string {
	var buf [64]byte
	name := append(append(buf[:0], "repl."...), r.g.cfg.Name...)
	name = strconv.AppendUint(append(name, ".exec#"...), r.id, 10)
	return string(strconv.AppendInt(append(name, "@n"...), int64(r.node), 10))
}

// Failover records one primary/leader promotion. The failover latency
// relative to the crash is the caller's to compute (the group only
// knows when the view excluding the old primary installed).
type Failover struct {
	From, To int
	At       vtime.Time
	// InView is the membership view whose installation promoted To.
	InView    uint64
	LostSince int64 // applied-counter gap (passive only)
}

// op is one request's record. Tag carries the client identity for
// exactly-once dedup (zero = untracked) and floor its writer's floor;
// owner is the plane's record, nil for submissions NewGroup's onReply
// answers. answered is set at the first authoritative answer and votes
// collects the active style's per-replica results, boxed so the other
// styles' records stay a word short of the next size class.
type op struct {
	id       uint64
	cmd      int64
	tag      ClientSeq
	floor    uint64
	owner    Owner
	answered bool
	votes    *[]int64
}

// batchMsg crosses the wire for request dissemination: one envelope,
// one execution thread, many requests — the per-request overhead the
// session layer's batching amortizes. Ops is one backing array of
// records, allocated at submission; every replica's copy of the batch
// points at it. View is the sender's installed membership view at send
// time (0 for clients outside the group, which are not
// view-synchronized). Unbatched submissions are batches of 1.
type batchMsg struct {
	Ops  []op
	View uint64
}

// ckptMsg carries a passive checkpoint, tagged with the view the
// checkpointing primary had installed when it was taken. Seen is the
// dedup table frozen at the same instant as the state, so a promoted
// backup suppresses exactly the duplicates its restored state covers:
// the sender's journal clipped to its length at that instant (the
// prefix of a journal never changes, so freezing it copies nothing),
// with Epoch naming its lineage. A semi-active or active donor keeps no
// journal and lists its table here for the join transfer instead.
type ckptMsg struct {
	State   int64
	Applied int64
	View    uint64
	Epoch   uint64
	Seen    []seenEntry
	// Floors are the sender's writer floors at the same instant; an
	// entry of Seen at or below its writer's is no longer in the table.
	Floors floorTable
}

// ckptRecord is what a checkpoint leaves on stable storage: the state
// and which table prefix it covers, a constant-size record.
type ckptRecord struct {
	State   int64
	Applied int64
	View    uint64
	Epoch   uint64
	SeenLen int
}

// compactAt is the shortest passive journal that compacts: below it,
// dead entries cost less than the copy.
const compactAt = 64

// remember enters one fresh tagged apply into sm's dedup table. On a
// passive group it also journals it, first taking a fresh epoch if the
// journal at hand is another machine's (a promoted backup, a restored
// ex-primary): the append then reallocates, because a foreign journal
// is clipped to its length, so the lineages never share a tail. A
// journal at least half of whose entries lie at or below their writers'
// floors is compacted first: its live entries — exactly those the table
// holds — move to a fresh array under a fresh epoch, which the next
// checkpoint ships whole. Table and journal both stay in the entries
// above the floors.
func (g *Group) remember(sm *StateMachine, tag ClientSeq, res int64) {
	if sm.seen == nil {
		sm.seen = make(map[ClientSeq]int64)
	}
	sm.seen[tag] = res
	if g.cfg.Style != Passive {
		return
	}
	switch live := len(sm.seen) - 1; {
	case len(sm.journal) >= compactAt && 2*live <= len(sm.journal):
		kept := make([]seenEntry, 0, max(2*live, compactAt))
		for _, e := range sm.journal {
			if !sm.retired(e.Tag) {
				kept = append(kept, e)
			}
		}
		g.epochs++
		sm.journal, sm.epoch, sm.owns = kept, g.epochs, true
	case !sm.owns:
		g.epochs++
		sm.epoch, sm.owns = g.epochs, true
	}
	sm.journal = append(sm.journal, seenEntry{Tag: tag, Result: res})
}

// freeze captures node's state and dedup table for shipping, tagged
// with its installed view. The floor rows are shipped as they are: the
// machine copies them before it next raises one.
func (g *Group) freeze(node int) ckptMsg {
	sm := g.machines[node]
	ck := ckptMsg{State: sm.State, Applied: sm.Applied, View: g.viewAt(node), Epoch: sm.epoch, Floors: sm.floors}
	sm.floorsOwn = false
	if g.cfg.Style == Passive {
		ck.Seen = sm.journal[:len(sm.journal):len(sm.journal)]
		return ck
	}
	// No journal off the passive style (nothing checkpoints there): list
	// the map, once per join. The receiver rebuilds a map from it, so
	// the iteration order shows nowhere.
	if len(sm.seen) > 0 {
		ck.Seen = make([]seenEntry, 0, len(sm.seen))
		for tag, res := range sm.seen {
			ck.Seen = append(ck.Seen, seenEntry{Tag: tag, Result: res})
		}
	}
	return ck
}

// adopt makes a shipped checkpoint node's state, dedup table and
// floors. A passive replica whose table is a prefix of the same lineage
// forgets what the shipped floors retire and inserts only the live
// entries it lacks; one that is ahead of it (a checkpoint overtaken on
// the wire, a donor that trails the joiner) drops its own tail; any
// other lineage — the first checkpoint, a newly promoted primary's, a
// compacted journal, a transfer to a stale ex-primary, floors below the
// replica's own — is rebuilt from the whole journal.
func (g *Group) adopt(node int, ck ckptMsg) {
	sm := g.machines[node]
	sm.State, sm.Applied = ck.State, ck.Applied
	have, n := len(sm.journal), len(ck.Seen)
	rebuild := g.cfg.Style != Passive || ck.Epoch != sm.epoch || !sm.floors.under(&ck.Floors)
	if !rebuild {
		sm.liftFloors(&ck.Floors)
	}
	sm.floors, sm.floorsOwn = ck.Floors, false
	switch {
	case rebuild:
		if clear(sm.seen); sm.seen == nil && n > 0 {
			sm.seen = make(map[ClientSeq]int64, n)
		}
		for _, e := range ck.Seen {
			if !sm.retired(e.Tag) {
				sm.seen[e.Tag] = e.Result
			}
		}
	case n >= have:
		for _, e := range ck.Seen[have:] {
			if !sm.retired(e.Tag) {
				sm.seen[e.Tag] = e.Result
			}
		}
	default:
		for _, e := range sm.journal[n:] {
			delete(sm.seen, e.Tag)
		}
	}
	if g.cfg.Style == Passive {
		sm.journal, sm.epoch, sm.owns = ck.Seen, ck.Epoch, false
	}
}

// under reports whether no floor of t is above the same writer's in u.
func (t *floorTable) under(u *floorTable) bool {
	for sp, row := range t {
		for id, f := range row {
			if id >= len(u[sp]) {
				if f > 0 {
					return false
				}
				continue
			}
			if f > u[sp][id] {
				return false
			}
		}
	}
	return true
}

// liftFloors forgets the entries that floors at or under u retire and
// the machine's own floors do not; the caller then adopts u.
func (sm *StateMachine) liftFloors(u *floorTable) {
	for sp, row := range u {
		for id, f := range row {
			var old uint64
			if own := sm.floors[sp]; id < len(own) {
				old = own[id]
			}
			if f > old {
				sm.forget(Tag(TagSpace(sp), uint64(id), 0).Client, old, f)
			}
		}
	}
}

// persist writes a checkpoint's record to node's stable store.
func (g *Group) persist(node int, ck ckptMsg) {
	g.stores[node].Write(g.ckptKey, ckptRecord{
		State: ck.State, Applied: ck.Applied, View: ck.View, Epoch: ck.Epoch, SeenLen: len(ck.Seen),
	}, g.stored)
}

// NewGroup builds a replica group over a membership service. mem may
// be nil for Active style (voting masks crashes with no failover);
// Passive and SemiActive require it — their promotion is driven by
// installed views. When mem is non-nil the group also registers its
// state machine with the membership join protocol, so a rejoining
// replica is restored from a live donor through stable storage. onReply
// (may be nil) receives the authoritative answers of the ops submitted
// without an Owner, by request id.
func NewGroup(eng *simkern.Engine, net *netsim.Network, mem *membership.Service, cfg Config,
	onReply func(reqID uint64, result int64, unanimous bool)) (*Group, error) {
	if len(cfg.Replicas) < 2 {
		return nil, fmt.Errorf("replication: group %q needs at least 2 replicas", cfg.Name)
	}
	if cfg.Style != Active && mem == nil {
		return nil, fmt.Errorf("replication: style %s requires a membership service", cfg.Style)
	}
	if mem != nil {
		universe := mem.Nodes()
		for _, r := range cfg.Replicas {
			found := false
			for _, n := range universe {
				if n == r {
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("replication: replica %d not in membership group %q", r, mem.Name())
			}
		}
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 10
	}
	g := &Group{
		eng:      eng,
		net:      net,
		mem:      mem,
		cfg:      cfg,
		machines: make(map[int]*StateMachine),
		stores:   make(map[int]*storage.Store),
		onReply:  onReply,
		reqPort:  "repl." + cfg.Name + ".req",
		ckptPort: "repl." + cfg.Name + ".ckpt",
		ckptKey:  "ckpt." + cfg.Name,
	}
	g.stored = func(err error) {
		if err != nil {
			g.StoreErrors++
		}
	}
	g.mRound = eng.Metrics().Counter("repl.rounds")
	eng.Metrics().GaugeFunc("repl.open", func() int64 { return int64(g.open) })
	for _, r := range cfg.Replicas {
		g.machines[r] = &StateMachine{}
		g.stores[r] = storage.New(eng, r, cfg.StorageLatency)
	}
	for _, r := range cfg.Replicas {
		node := r
		net.Bind(node, g.reqPort, func(m *netsim.Message) { g.handleRequest(node, m) })
		net.Bind(node, g.ckptPort, func(m *netsim.Message) { g.handleCheckpoint(node, m) })
	}
	if mem != nil {
		mem.OnChange(g.handleView)
		mem.RegisterState("repl."+cfg.Name, g.snapshotState, g.restoreState)
	}
	return g, nil
}

// viewAt returns node's installed membership view ID (0 without a
// membership service, or for nodes outside the group such as clients).
func (g *Group) viewAt(node int) uint64 {
	if g.mem == nil {
		return 0
	}
	return g.mem.CurrentView(node).ID
}

// staleSender implements the view-boundary flush on the replication
// traffic: a copy tagged with an older view than the receiver's, sent
// by a replica that is no longer in the receiver's view, is discarded
// — acting on it would smuggle a pre-boundary update (e.g. an isolated
// ex-primary's checkpoint) past the view change. Clients tag view 0
// and are exempt: they are not view-synchronized.
func (g *Group) staleSender(node, from int, view uint64) bool {
	if g.mem == nil || view == 0 || g.machines[from] == nil {
		return false
	}
	cv := g.mem.CurrentView(node)
	if view >= cv.ID || cv.Contains(from) {
		return false
	}
	g.Flushed++
	g.eng.Recordf(monitor.KindFlush, node, g.cfg.Name, "from=n%d view=%d<%d", from, view, cv.ID)
	return true
}

// handleView reacts to an installed membership view — the only
// failover trigger. Leadership is sticky: the primary keeps its role
// while it is in the view; when a view excluding it installs, the next
// replica (in declared promotion order, ring-wise) that is in the view
// is promoted. Because views are agreed and installed at one fixed
// instant, every replica performs the same promotion in the same view.
func (g *Group) handleView(v membership.View) {
	if g.cfg.Style == Active {
		return // voting masks crashes; no leadership to move
	}
	cur := g.Primary()
	if v.Contains(cur) {
		return
	}
	for i := 1; i < len(g.cfg.Replicas); i++ {
		idx := (g.primary + i) % len(g.cfg.Replicas)
		cand := g.cfg.Replicas[idx]
		if !v.Contains(cand) {
			continue
		}
		lost := g.machines[cur].Applied - g.machines[cand].Applied
		if g.cfg.Style == SemiActive || lost < 0 {
			lost = 0 // followers executed everything themselves
		}
		g.primary = idx
		g.sinceCheckpoint = 0
		fo := Failover{From: cur, To: cand, At: g.eng.Now(), InView: v.ID, LostSince: lost}
		g.Failovers = append(g.Failovers, fo)
		g.LostWork += lost
		g.eng.Recordf(monitor.KindFailover, cand, g.cfg.Name, "from=n%d view=%d lost=%d", cur, v.ID, lost)
		return
	}
}

// snapshotState is the membership join protocol's donor-side hook: it
// captures the authoritative (primary) state, checkpointing it to the
// source's stable store on the way out. The membership-chosen donor
// need not be a replica; if the primary is down at the join instant,
// the snapshot falls back to the first live replica in promotion
// order (never the joiner — its state is the stale one).
func (g *Group) snapshotState(donor, joiner int) any {
	if g.machines[joiner] == nil {
		return nil // the joiner is not one of our replicas
	}
	src := g.Primary()
	if g.net.NodeDown(src) || g.machines[src] == nil {
		src = -1
		for _, r := range g.cfg.Replicas {
			if r != joiner && g.machines[r] != nil && !g.net.NodeDown(r) {
				src = r
				break
			}
		}
	}
	if src < 0 {
		return nil // no live replica holds usable state
	}
	ck := g.freeze(src)
	g.persist(src, ck)
	return ck
}

// restoreState is the joiner-side hook: the shipped snapshot becomes
// the replica's state, persisted to its own stable store.
func (g *Group) restoreState(node int, data any) {
	ck, ok := data.(ckptMsg)
	if !ok || g.machines[node] == nil {
		return
	}
	g.adopt(node, ck)
	g.persist(node, ck)
}

// Machine returns a replica's state machine (test/fault-injection hook).
func (g *Group) Machine(node int) *StateMachine { return g.machines[node] }

// Primary returns the current primary/leader node.
func (g *Group) Primary() int { return g.cfg.Replicas[g.primary] }

// Style returns the group's replication style.
func (g *Group) Style() Style { return g.cfg.Style }

// Submit issues one untracked (at-least-once) request to the group,
// returning its ID.
func (g *Group) Submit(from int, cmd int64) uint64 {
	return g.SubmitTagged(from, cmd, ClientSeq{})
}

// SubmitTagged issues one request carrying a client dedup tag: a
// request with the same non-zero tag that was already applied anywhere
// in the surviving state lineage is answered from the replicated dedup
// cache instead of applied again — the exactly-once contract the
// sharded client layer's retries rely on.
func (g *Group) SubmitTagged(from int, cmd int64, tag ClientSeq) uint64 {
	return g.SubmitBatch(from, []BatchItem{{Cmd: cmd, Tag: tag}})[0]
}

// BatchItem is one request of a batched submission. Owner, when set,
// is handed the request back at its applies and answers (NewGroup's
// onReply is then not called for it).
//
// Floor is the floor of the item's writer (see the package comment) as
// the writer sent it, 0 for none: every request the writer numbered at
// or below it is retired, so a replica forgets their entries and
// answers a late copy of one as a dedup hit.
type BatchItem struct {
	Cmd   int64
	Tag   ClientSeq
	Owner Owner
	Floor uint64
}

// SubmitBatch issues many requests as ONE replicated round: one wire
// message per replica and one execution thread (one WExec charge)
// carry the whole batch, amortizing the per-request dissemination and
// scheduling cost. Each item keeps its own request ID, reply and dedup
// tag, so exactly-once and retry-from-cache hold op-by-op — a retried
// batch whose items were partially applied before a failover is
// answered item-by-item from the replicated dedup table. Returns the
// request IDs, item order.
func (g *Group) SubmitBatch(from int, items []BatchItem) []uint64 {
	ids := make([]uint64, len(items))
	for i := range ids {
		ids[i] = g.nextReq + 1 + uint64(i)
	}
	g.SubmitOwned(from, items)
	return ids
}

// SubmitOwned is SubmitBatch for items that carry their Owner: each is
// answered through its owner, so no request ids come back.
func (g *Group) SubmitOwned(from int, items []BatchItem) {
	if len(items) == 0 {
		return
	}
	msg := batchMsg{Ops: make([]op, len(items)), View: g.viewAt(from)}
	for i, it := range items {
		g.nextReq++
		msg.Ops[i] = op{id: g.nextReq, cmd: it.Cmd, tag: it.Tag, floor: it.Floor, owner: it.Owner}
	}
	g.mRound.Inc()
	g.open += len(items)
	size := 16 * len(items)
	var boxed any // msg as a payload: boxed once, at the first remote send
	send := func(to int) {
		if boxed == nil {
			boxed = msg
		}
		_, _ = g.net.Send(from, to, g.reqPort, boxed, size)
	}
	switch g.cfg.Style {
	case Active, SemiActive:
		// All replicas receive and execute.
		for _, r := range g.cfg.Replicas {
			if r == from {
				g.execute(r, msg)
				continue
			}
			send(r)
		}
	case Passive:
		if p := g.Primary(); p == from {
			g.execute(p, msg)
		} else {
			send(p)
		}
	}
}

func (g *Group) handleRequest(node int, m *netsim.Message) {
	msg, ok := m.Payload.(batchMsg)
	if !ok {
		return
	}
	if g.staleSender(node, m.From, msg.View) {
		return
	}
	if g.cfg.Style == Passive && node != g.Primary() {
		return // backups ignore requests
	}
	g.execute(node, msg)
}

// execute runs one batch on one replica — a single thread charging a
// single WExec for the whole batch — then applies and replies to its
// items in order. Per-item dedup means a batch that straddles a retry
// boundary re-applies only the items the surviving lineage has not
// seen.
func (g *Group) execute(node int, msg batchMsg) {
	if g.net.NodeDown(node) {
		return
	}
	r := g.runs
	if r == nil {
		r = &execRun{g: g}
	} else {
		g.runs, r.next = r.next, nil
	}
	r.node, r.id, r.msg = node, msg.Ops[0].id, msg
	g.eng.Processors()[node].InitThread(&r.th, r, simkern.PrioMax-5000)
	r.th.AddSegment(simkern.Segment{Work: g.cfg.WExec, PT: simkern.PrioMax - 5000})
	r.th.Ready()
}

// ThreadDone ends the execution thread: it applies the batch at its
// replica. The record is released first, so an execute the applies
// start can reuse it.
func (r *execRun) ThreadDone() {
	g, node, msg := r.g, r.node, r.msg
	r.msg = batchMsg{}
	r.next, g.runs = g.runs, r
	if g.net.NodeDown(node) {
		return
	}
	sm := g.machines[node]
	for i := range msg.Ops {
		g.applyOne(node, sm, &msg.Ops[i])
	}
}

// applyOne applies one batch item at one replica: floor, dedup, apply,
// record, owner, reply, passive checkpoint cadence. An item its
// writer's floor retires is a dedup hit whose result nobody reads: the
// writer has retired the request its reply answers.
func (g *Group) applyOne(node int, sm *StateMachine, o *op) {
	if o.tag != (ClientSeq{}) {
		sm.raiseFloor(o.tag, o.floor)
		cached, dup := sm.Lookup(o.tag)
		if dup || sm.retired(o.tag) {
			g.Duplicates++
			g.reply(node, o, cached)
			return
		}
	}
	res := sm.Apply(o.cmd)
	if o.tag != (ClientSeq{}) {
		g.remember(sm, o.tag, res)
	}
	if o.owner != nil {
		o.owner.Applied(node, res)
	}
	g.reply(node, o, res)
	if g.cfg.Style == Passive && node == g.Primary() {
		g.sinceCheckpoint++
		if g.sinceCheckpoint >= g.cfg.CheckpointEvery {
			g.sinceCheckpoint = 0
			g.checkpoint(node)
		}
	}
}

// reply collects replies; active groups vote: a result is delivered as
// soon as some value has a strict majority of the replica count — the
// masking condition. Waiting for a bare quorum of *any* two replies
// would let a fast corrupt replica tie the vote; requiring matching
// majority replies masks up to ⌊(n-1)/2⌋ value faults.
func (g *Group) reply(node int, o *op, result int64) {
	switch g.cfg.Style {
	case Active:
		if o.votes == nil {
			o.votes = new([]int64)
		}
		*o.votes = append(*o.votes, result)
		if o.answered {
			return
		}
		need := len(g.cfg.Replicas)/2 + 1
		if winner, n, distinct := tally(*o.votes); n >= need {
			o.answered = true
			g.open--
			// unanimous reflects the replies seen at vote time; a
			// divergent replica that answers before the majority
			// forms is caught here.
			g.answer(o, winner, distinct == 1)
		}
	case Passive, SemiActive:
		// The primary's (leader's) reply is authoritative.
		if node == g.Primary() {
			if !o.answered {
				o.answered = true
				g.open--
			}
			g.answer(o, result, true)
		}
	}
}

// answer hands one authoritative answer to the op's owner, or to
// onReply when it has none.
func (g *Group) answer(o *op, result int64, unanimous bool) {
	switch {
	case o.owner != nil:
		o.owner.Replied(result, unanimous)
	case g.onReply != nil:
		g.onReply(o.id, result, unanimous)
	}
}

// tally returns the most frequent result, its count, and the number of
// distinct results (ties broken by value, deterministically).
func tally(votes []int64) (winner int64, count, distinct int) {
	counts := make(map[int64]int, len(votes))
	for _, v := range votes {
		counts[v]++
	}
	type kv struct {
		v int64
		n int
	}
	all := make([]kv, 0, len(counts))
	for v, n := range counts {
		all = append(all, kv{v, n})
	}
	slices.SortFunc(all, func(a, b kv) int {
		return cmp.Or(cmp.Compare(b.n, a.n), cmp.Compare(a.v, b.v))
	})
	return all[0].v, all[0].n, len(all)
}

// checkpoint propagates the primary's state to backups and stable
// storage (passive style).
func (g *Group) checkpoint(primary int) {
	ck := g.freeze(primary)
	g.persist(primary, ck)
	var boxed any = ck // one payload for every backup
	for _, r := range g.cfg.Replicas {
		if r == primary {
			continue
		}
		if _, err := g.net.Send(primary, r, g.ckptPort, boxed, 24); err != nil {
			continue
		}
	}
	g.eng.Recordf(monitor.KindCheckpoint, primary, g.cfg.Name, "applied=%d", ck.Applied)
}

func (g *Group) handleCheckpoint(node int, m *netsim.Message) {
	ck, ok := m.Payload.(ckptMsg)
	if !ok {
		return
	}
	if g.staleSender(node, m.From, ck.View) {
		return
	}
	if ck.Applied > g.machines[node].Applied || g.cfg.Style == Passive {
		g.adopt(node, ck)
	}
	g.persist(node, ck)
}
