package scenario

import (
	"fmt"
	"math/rand"

	"hades/internal/cluster"
	"hades/internal/load"
	"hades/internal/replication"
	"hades/internal/session"
	"hades/internal/shard"
	"hades/internal/txn"
)

// ShardClientSpec declares one request client of a sharded data
// plane: a keyed workload submitted round-robin over Keys, one
// request every SubmitEveryMs for the whole horizon. (Open-loop and
// closed-loop populations are the load blocks' job.)
type ShardClientSpec struct {
	Node int      `json:"node"`
	Keys []string `json:"keys"`
	// SubmitEveryMs is the fixed submission interval.
	SubmitEveryMs float64 `json:"submitEveryMs"`
	// Count replicates this client on Count consecutive nodes starting
	// at Node (0 and 1 both mean a single client) — scaling the
	// workload is a knob, not a copy-pasted spec block.
	Count int `json:"count,omitempty"`
	// ZipfSkew switches the key choice from round-robin to a Zipf
	// distribution with this exponent over Keys (rank = declaration
	// order: the first key is the hottest). Keys are drawn at build
	// time from a source seeded by the scenario seed and the client
	// node, so the skewed workload is part of the run description —
	// deterministic, and the metrics plane's hot-shard detector has
	// real data to find. 0 keeps the round-robin default.
	ZipfSkew float64 `json:"zipfSkew,omitempty"`
	// Policy is "queue" (default: park exhausted requests, resubmit
	// after a view change or heal) or "fail-fast".
	Policy string `json:"policy,omitempty"`
}

// TxnClientSpec declares one transaction client of a sharded data
// plane: a bank-transfer workload — every SubmitEveryMs one two-key
// atomic transfer (read both accounts, debit one, credit the other)
// rotating over consecutive Accounts pairs, each transaction carrying
// a relative virtual-time deadline.
type TxnClientSpec struct {
	Node int `json:"node"`
	// Accounts is the keyed account set (at least 2).
	Accounts []string `json:"accounts"`
	// SubmitEveryMs is the submission interval.
	SubmitEveryMs float64 `json:"submitEveryMs"`
	// DeadlineMs is the relative transaction deadline (0 selects the
	// client default): a transaction not committed by its deadline
	// deterministically aborts and releases its locks.
	DeadlineMs float64 `json:"deadlineMs,omitempty"`
}

// SessionSpec tunes the data plane's session throughput knobs: op
// batching (per-shard coalescing of client submissions into one wire
// message and one replicated round) and pipelining (several batches in
// flight per shard). On a plane with transaction clients the same
// knobs batch the coordinators' decision log (group commit). All
// three fields are required and must be positive — a partial or
// zeroed block is rejected loudly rather than silently defaulted.
type SessionSpec struct {
	// MaxBatch caps the ops coalesced into one submission (1 = the
	// unbatched legacy discipline).
	MaxBatch int `json:"maxBatch"`
	// FlushIntervalMs bounds how long a partial batch may wait before
	// it is flushed anyway (virtual time).
	FlushIntervalMs float64 `json:"flushIntervalMs"`
	// PipelineDepth caps the batches in flight per shard (1 = stop
	// and wait; the decision log ignores it — decisions complete
	// through the replicated apply stream).
	PipelineDepth int `json:"pipelineDepth"`
}

// ShardsSpec declares a sharded data plane: Count replication groups
// behind a deterministic consistent-hash ring, plus the clients that
// drive it. Each shard is one view-synchronous membership group
// carrying one replicated state machine.
type ShardsSpec struct {
	// Count is the number of shards (>= 1 — zero shards is an error).
	Count int `json:"count"`
	// ReplicasPer sizes each shard's replica set under the consecutive
	// default layout (shard i owns nodes [i·ReplicasPer,(i+1)·ReplicasPer)).
	ReplicasPer int `json:"replicasPer,omitempty"`
	// Groups pins the replica node sets explicitly (len must equal
	// Count; sets must be disjoint — overlapping membership is an error).
	Groups [][]int `json:"groups,omitempty"`
	// Style is "semi-active" (default) or "passive"; "active" has no
	// primary to route to and is rejected.
	Style string `json:"style,omitempty"`
	// Routes pins keys to shard indices, bypassing the hash; a route
	// to an index outside [0, Count) is an error.
	Routes map[string]int `json:"routes,omitempty"`
	// CheckpointEvery is the passive checkpoint interval in requests
	// (0 selects the replication default). The replicas' execution and
	// stable-storage costs are the cluster's constants.
	CheckpointEvery int `json:"checkpointEvery,omitempty"`
	// Session, when present, turns on op batching/pipelining for the
	// plane's clients and group commit for its transaction
	// coordinators; omitted means the unbatched legacy discipline. It
	// is rejected on a spec with neither clients nor txns.
	Session *SessionSpec `json:"session,omitempty"`
	// Clients drive the keyed workload.
	Clients []ShardClientSpec `json:"clients,omitempty"`
	// Txns drive a cross-shard atomic-transfer workload (two-phase
	// commit over the shard groups with per-transaction deadlines).
	Txns []TxnClientSpec `json:"txns,omitempty"`
	// Load attaches declarative load generators (open/closed-loop
	// session populations multiplexed over the plane's clients).
	Load []LoadSpec `json:"load,omitempty"`
}

// The shard-plane enums' single sources (see named).
var (
	// shardStyles defaults to semi-active, the style the exactly-once
	// audit requires; "active" has no primary to route to.
	shardStyles = map[string]replication.Style{
		"": replication.SemiActive, "semi-active": replication.SemiActive, "passive": replication.Passive}
	clientPolicies = map[string]shard.Policy{
		"": shard.QueueOnFailure, "queue": shard.QueueOnFailure, "fail-fast": shard.FailFast}
)

// shardSet names the scenario's one sharded data plane; its groups are
// cluster.ShardGroupName(shardSet, i).
const shardSet = "shard"

// roles is a shards block's node-role ledger: what may sit on a node —
// nothing yet, a replica, a shard (kv) client or a txn client — is
// decided here, for declared clients and generators alike. The cluster
// enforces the same rule by panicking (ShardSet.ClientWith,
// TxnClientWith); every client Build will place is claimed here first.
type roles map[int]string

const replica, kvClient, txnClient = "replica", "shard client", "txn client"

// clientRoles is the kind of client each generator workload submits
// through.
var clientRoles = map[load.Workload]string{load.KV: kvClient, load.Txn: txnClient}

// claim puts a want client on node n for who ("shard client 2"). A
// node holds one client and never one next to a replica; shared says a
// client of the same kind already there is reused (generators) rather
// than refused (declared clients). A nil ledger — the pubsub block,
// whose publishers sit anywhere — only checks the node exists.
func (s Spec) claim(at roles, n int, want string, shared bool, who string, args ...any) error {
	who = fmt.Sprintf(who, args...)
	if err := s.knownNode(n, "%s on", who); err != nil || at == nil {
		return err
	}
	switch have := at[n]; {
	case have == "":
		at[n] = want
	case have == replica:
		return fmt.Errorf("scenario %q: %s on node %d collides with a shard replica", s.Name, who, n)
	case have != want:
		return fmt.Errorf("scenario %q: %s: two clients on node %d (it wants a %s, the node hosts a %s)", s.Name, who, n, want, have)
	case !shared:
		return fmt.Errorf("scenario %q: two %ss on node %d", s.Name, want, n)
	}
	return nil
}

// validateShards rejects malformed sharded-data-plane specs with loud
// errors: a layout cluster.ShardLayout refuses, keys routed to
// undeclared groups, colliding or out-of-range clients, drivers that
// cannot be laid out. loadNames collects the block's generator names.
func (s Spec) validateShards(loadNames map[string]bool) error {
	sp := s.Shards
	if sp == nil {
		return nil
	}
	if err := s.networked("shards need"); err != nil {
		return err
	}
	layout, err := cluster.ShardLayout(sp.Count, sp.ReplicasPer, sp.Groups, s.Nodes)
	if err != nil {
		return fmt.Errorf("scenario %q: %v", s.Name, err)
	}
	if sp.Style == "active" {
		return fmt.Errorf("scenario %q: shard style \"active\" has no primary to route to", s.Name)
	}
	if _, err := named(s, shardStyles, sp.Style, "unknown shard style"); err != nil {
		return err
	}
	for key, idx := range sp.Routes {
		if idx < 0 || idx >= sp.Count {
			return fmt.Errorf("scenario %q: key %q routed to undeclared shard group %d (have %d)", s.Name, key, idx, sp.Count)
		}
	}
	if se := sp.Session; se != nil {
		if len(sp.Clients) == 0 && len(sp.Txns) == 0 && len(sp.Load) == 0 {
			return fmt.Errorf("scenario %q: session knobs on a shards spec with no clients, txns or load (nothing to batch)", s.Name)
		}
		if se.MaxBatch < 1 {
			return fmt.Errorf("scenario %q: session maxBatch must be >= 1 (got %d)", s.Name, se.MaxBatch)
		}
		if msd(se.FlushIntervalMs) <= 0 {
			return fmt.Errorf("scenario %q: session flushIntervalMs must be positive (at least 1ns; got %g)", s.Name, se.FlushIntervalMs)
		}
		if se.PipelineDepth < 1 {
			return fmt.Errorf("scenario %q: session pipelineDepth must be >= 1 (got %d)", s.Name, se.PipelineDepth)
		}
	}
	at := roles{}
	for _, set := range layout {
		for _, n := range set {
			at[n] = replica
		}
	}
	for i, cl := range sp.Clients {
		if cl.Count < 0 {
			return fmt.Errorf("scenario %q: shard client %d has negative count %d", s.Name, i, cl.Count)
		}
		if cl.ZipfSkew < 0 {
			return fmt.Errorf("scenario %q: shard client %d has negative zipfSkew %g", s.Name, i, cl.ZipfSkew)
		}
		for k := 0; k < max(cl.Count, 1); k++ {
			if err := s.claim(at, cl.Node+k, kvClient, false, "shard client %d", i); err != nil {
				return err
			}
		}
		if len(cl.Keys) == 0 {
			return fmt.Errorf("scenario %q: shard client %d has no keys", s.Name, i)
		}
		if err := s.fixedDriver(cl.SubmitEveryMs, 0, "shard client %d", i); err != nil {
			return err
		}
		if _, err := named(s, clientPolicies, cl.Policy, "shard client %d has unknown policy", i); err != nil {
			return err
		}
	}
	for i, tc := range sp.Txns {
		if err := s.claim(at, tc.Node, txnClient, false, "txn client %d", i); err != nil {
			return err
		}
		if len(tc.Accounts) < 2 {
			return fmt.Errorf("scenario %q: txn client %d needs at least 2 accounts (got %d)", s.Name, i, len(tc.Accounts))
		}
		if err := s.fixedDriver(tc.SubmitEveryMs, 0, "txn client %d", i); err != nil {
			return err
		}
		if tc.DeadlineMs < 0 {
			return fmt.Errorf("scenario %q: txn client %d has negative timing: deadlineMs %g", s.Name, i, tc.DeadlineMs)
		}
	}
	block := shardsLoads
	block.roles = at
	return s.validateLoads(block, sp.Load, loadNames)
}

// picker returns the key choice for the client's i-th submission.
// With ZipfSkew zero it is the round-robin default; otherwise keys are
// drawn from a Zipf distribution over Keys (declaration order = rank,
// so the first key is the hottest) over a local source seeded from the
// scenario seed and the client node. The draw happens at each
// submission, in i order from that source, so it never touches the
// engine's random stream.
func (cs ShardClientSpec) picker(seed int64, node int) func(i int) string {
	keys := cs.Keys
	if cs.ZipfSkew == 0 || len(keys) < 2 {
		return func(i int) string { return keys[i%len(keys)] }
	}
	zipf := load.NewZipf(len(keys), cs.ZipfSkew)
	rng := rand.New(rand.NewSource(seed*1000003 + int64(node)))
	return func(int) string { return keys[zipf.Rank(rng)] }
}

// attachShards lowers the sharded data plane: the shard set, the
// declared kv then txn clients with their fixed-interval drivers, the
// block's generators, then the pubsub plane riding the set.
func (s Spec) attachShards(c *cluster.Cluster) error {
	sp := s.Shards
	if sp == nil {
		return nil
	}
	cfg := cluster.ShardConfig{
		Name:            shardSet,
		Groups:          sp.Groups,
		Style:           shardStyles[sp.Style],
		Routes:          sp.Routes,
		CheckpointEvery: sp.CheckpointEvery,
	}
	if se := sp.Session; se != nil {
		knobs := session.Params{
			MaxBatch:      se.MaxBatch,
			FlushInterval: msd(se.FlushIntervalMs),
			PipelineDepth: se.PipelineDepth,
		}
		cfg.Session = knobs
		cfg.GroupCommit = knobs
	}
	set := c.ShardsWith(sp.Count, sp.ReplicasPer, cfg)
	for _, cs := range sp.Clients {
		for k := 0; k < max(cs.Count, 1); k++ {
			node := cs.Node + k
			cl := set.ClientWith(shard.ClientParams{Node: node, Policy: clientPolicies[cs.Policy]})
			pick := cs.picker(s.Seed, node)
			s.every(c, cs.SubmitEveryMs, 0, func(i int) { cl.Submit(pick(i), int64(i+1)) })
		}
	}
	for _, ts := range sp.Txns {
		tc := set.TxnClientWith(txn.ClientParams{Node: ts.Node, Deadline: msd(ts.DeadlineMs)})
		accounts := ts.Accounts
		s.every(c, ts.SubmitEveryMs, 0, func(i int) {
			tc.Transfer(accounts[i%len(accounts)], accounts[(i+1)%len(accounts)], int64(i+1))
		})
	}
	s.attachLoads(shardsLoads, sp.Load, func(i int) int64 { return loadSeed(s.Seed, i) }, set.AttachLoad)
	return s.attachPubSub(c, set)
}
