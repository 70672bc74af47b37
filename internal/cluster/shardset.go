package cluster

import (
	"errors"
	"fmt"
	"slices"

	"hades/internal/membership"
	"hades/internal/pubsub"
	"hades/internal/replication"
	"hades/internal/session"
	"hades/internal/shard"
	"hades/internal/txn"
	"hades/internal/vtime"
)

// ShardConfig tunes a sharded data plane declared with ShardsWith.
// The zero value selects semi-active replication, consecutive node
// layout and the replication defaults. The ring always holds
// shard.DefaultVNodes points per shard, and every replica costs 100 µs
// per execution and 20 µs per stable-storage write.
type ShardConfig struct {
	// Name prefixes the shard group names ("shard" → shard0, shard1…).
	Name string
	// Groups pins the replica node sets explicitly (promotion order =
	// declaration order); empty selects consecutive layout.
	Groups [][]int
	// Style selects the replication protocol (default SemiActive; the
	// client layer's exactly-once verification requires it).
	Style replication.Style
	// Routes pins keys to shard indices, bypassing the hash.
	Routes map[string]int
	// CheckpointEvery is the passive checkpoint interval in requests
	// (0 selects the replication default).
	CheckpointEvery int
	// Session sets the default throughput knobs of clients created on
	// this set (op batching per shard, pipelined in-flight batches);
	// a client's own non-zero ClientParams.Session wins. The zero value
	// is the unbatched, unpipelined legacy discipline.
	Session session.Params
	// GroupCommit batches the transaction coordinators' decision log:
	// one replicated round carries many COMMIT/ABORT records. The zero
	// value logs each decision in its own round.
	GroupCommit session.Params
}

// ShardSet is a sharded data plane on the cluster: N replication
// groups (each a view-synchronous membership group carrying a
// replicated state machine) behind a consistent-hash router, plus the
// clients created with ClientAt. Its statistics are rolled into the
// cluster Result.
type ShardSet struct {
	c           *Cluster
	name        string
	respPort    string
	router      *shard.Router
	shards      []*shard.Group
	clients     []*shard.Client
	clientNodes map[int]bool
	txn         *txn.Plane
	pubsub      *pubsub.Plane
	session     session.Params
	groupCommit session.Params
}

// ShardsWith declares a sharded data plane of n replication groups with
// replicasPer replicas each, laid out over consecutive nodes (shard i
// owns nodes [i·replicasPer, (i+1)·replicasPer)), semi-active style
// unless cfg says otherwise; cfg.Groups overrides the consecutive
// layout (n and replicasPer are then ignored). It finalizes the
// platform and needs a network. Submit keyed requests through ClientAt.
func (c *Cluster) ShardsWith(n, replicasPer int, cfg ShardConfig) *ShardSet {
	c.build()
	if c.net == nil {
		panic("cluster: Shards needs a network (declare links or multiple nodes)")
	}
	if cfg.Name == "" {
		cfg.Name = "shard"
	}
	// Coexisting data planes need distinct names: the name scopes the
	// shard group names (hence their membership/request ports) and the
	// set's response port.
	for _, prev := range c.shardSets {
		if prev.name == cfg.Name {
			panic(fmt.Sprintf("cluster: shard set %q already exists (give coexisting sets distinct Names)", cfg.Name))
		}
	}
	if cfg.Style == 0 {
		cfg.Style = replication.SemiActive
	}
	if len(cfg.Groups) > 0 {
		n = len(cfg.Groups)
	}
	groups, err := ShardLayout(n, replicasPer, cfg.Groups, len(c.nodes))
	if err != nil {
		panic(fmt.Sprintf("cluster: %v", err))
	}
	respPort := "shard." + cfg.Name + ".resp"
	ring := shard.NewRing(len(groups), shard.DefaultVNodes)
	sgroups := make([]*shard.Group, 0, len(groups))
	for i, nodes := range groups {
		name := ShardGroupName(cfg.Name, i)
		mg := c.Group(name, nodes...)
		sg, err := shard.NewGroup(c.eng, c.net, mg.svc, shard.GroupConfig{
			Name:     name,
			Index:    i,
			RespPort: respPort,
			Replication: replication.Config{
				Name:            name,
				Replicas:        nodes,
				Style:           cfg.Style,
				WExec:           replicaWExec,
				CheckpointEvery: cfg.CheckpointEvery,
				StorageLatency:  replicaStorageLatency,
			},
		})
		if err != nil {
			panic(err)
		}
		mg.rep = append(mg.rep, sg.Replication())
		sgroups = append(sgroups, sg)
	}
	router, err := shard.NewRouter(c.eng, ring, sgroups, cfg.Routes)
	if err != nil {
		panic(err)
	}
	set := &ShardSet{c: c, name: cfg.Name, respPort: respPort, router: router,
		shards: sgroups, clientNodes: make(map[int]bool),
		session: cfg.Session, groupCommit: cfg.GroupCommit}
	c.shardSets = append(c.shardSets, set)
	return set
}

// ShardGroupName names shard i of the named set: the membership group
// ShardsWith creates for it, and so the scope of its ports.
func ShardGroupName(set string, i int) string { return fmt.Sprintf("%s%d", set, i) }

// ShardLayout is the one rule for where a sharded data plane's replicas
// sit: count shards of replicasPer consecutive nodes each (shard i owns
// [i·replicasPer, (i+1)·replicasPer)), or the explicit sets when given —
// which must then number count and be disjoint. Every set holds at
// least two nodes of the platform that a membership group can span.
// ShardsWith panics with its error; the scenario layer reports it
// against the file.
func ShardLayout(count, replicasPer int, explicit [][]int, nodes int) ([][]int, error) {
	if count < 1 {
		return nil, fmt.Errorf("shards spec declares zero shards (count=%d)", count)
	}
	groups := explicit
	if len(groups) == 0 {
		if replicasPer < 2 {
			return nil, fmt.Errorf("shards need replicasPer >= 2 (got %d)", replicasPer)
		}
		// Dividing keeps a huge count from overflowing the product.
		if count > nodes/replicasPer {
			return nil, fmt.Errorf("%d shards × %d replicas need %d nodes, have %d", count, replicasPer, count*replicasPer, nodes)
		}
		groups = make([][]int, count)
		for i := range groups {
			for r := 0; r < replicasPer; r++ {
				groups[i] = append(groups[i], i*replicasPer+r)
			}
		}
	} else if len(groups) != count {
		return nil, fmt.Errorf("shards declare count=%d but %d explicit groups", count, len(groups))
	}
	owner := make(map[int]int)
	for i, g := range groups {
		if len(g) < 2 {
			return nil, fmt.Errorf("shard group %d needs at least 2 replicas (got %d)", i, len(g))
		}
		if len(g) > membership.MaxMembers {
			return nil, fmt.Errorf("shard group %d has %d replicas, at most %d", i, len(g), membership.MaxMembers)
		}
		for _, node := range g {
			if node < 0 || node >= nodes {
				return nil, fmt.Errorf("shard group %d names unknown node %d (have %d)", i, node, nodes)
			}
			if prev, dup := owner[node]; dup {
				return nil, fmt.Errorf("node %d is a replica of shard groups %d and %d (overlapping group membership)", node, prev, i)
			}
			owner[node] = i
		}
	}
	return groups, nil
}

// The replica costs of every group the cluster replicates: one
// request's execution on a replica, and one copy's stable-storage write.
const (
	replicaWExec          = 100 * vtime.Microsecond
	replicaStorageLatency = 20 * vtime.Microsecond
)

// ShardSets returns the cluster's sharded data planes, creation order.
func (c *Cluster) ShardSets() []*ShardSet { return c.shardSets }

// Clients returns the clients created with ClientAt, creation order.
func (s *ShardSet) Clients() []*shard.Client { return append([]*shard.Client(nil), s.clients...) }

// ClientAt creates a request client on the given node with default
// retry parameters and the queue-on-failure policy.
func (s *ShardSet) ClientAt(node int) *shard.Client {
	return s.ClientWith(shard.ClientParams{Node: node})
}

// ClientWith creates a request client with explicit parameters; its
// session knobs and response port are the set's. One client per node; clients may not be co-located with shard replicas
// (a split would then cut the client's own shard in two ways at once
// and the response port would collide with serving duties).
func (s *ShardSet) ClientWith(p shard.ClientParams) *shard.Client {
	s.place(p.Node, "shard client")
	p.Session = s.session
	p.RespPort = s.respPort
	cl := shard.NewClient(s.c.eng, s.c.net, s.router, p)
	s.clients = append(s.clients, cl)
	return cl
}

// Check verifies the safety contract of the run so far: every
// acknowledged request applied exactly once in the owning shard's
// authoritative history, in per-key submission order (see
// shard.Verify).
func (s *ShardSet) Check() error { return s.check(shard.NewHistories(s.router)) }

func (s *ShardSet) check(hs *shard.Histories) error { return shard.Verify(s.router, s.clients, hs) }

// Verify audits the run so far against every data plane's safety
// contract and joins what fails: per shard set, the exactly-once audit
// (Check — semi-active sets only, since passive replication loses
// acknowledged work since the last checkpoint by design and
// shard.Verify rejects it by contract), the atomic-commitment audit
// (CheckTxns) and the pub/sub delivery audit (CheckPubSub). The first
// two read one index of each group's history. A cluster without shard
// sets passes vacuously.
func (c *Cluster) Verify() error {
	var errs []error
	for _, s := range c.shardSets {
		hs := shard.NewHistories(s.router)
		if s.shards[0].Replication().Style() == replication.SemiActive {
			errs = append(errs, s.check(hs))
		}
		errs = append(errs, s.checkTxns(hs), s.CheckPubSub())
	}
	return errors.Join(errs...)
}

// txnPlane returns the set's transaction layer (coordinator and
// participant roles on every shard group), creating it on first use.
func (s *ShardSet) txnPlane() *txn.Plane {
	if s.txn == nil {
		s.txn = txn.NewPlane(s.c.eng, s.c.net, s.router, s.name)
		s.txn.SetGroupCommit(s.groupCommit)
	}
	return s.txn
}

// TxnClientAt creates a transaction client on the given node with
// default retry parameters and deadline.
func (s *ShardSet) TxnClientAt(node int) *txn.Client {
	return s.TxnClientWith(txn.ClientParams{Node: node})
}

// TxnClientWith creates a transaction client with explicit parameters.
// Like request clients, transaction clients get a node of their own:
// co-locating one with a replica or another client of this set would
// collide on serving duties.
func (s *ShardSet) TxnClientWith(p txn.ClientParams) *txn.Client {
	s.place(p.Node, "txn client")
	return txn.NewClient(s.txnPlane(), p)
}

// place claims node for one client of this set: an existing node that
// hosts no other client of the set and none of its replicas.
func (s *ShardSet) place(node int, what string) {
	if node < 0 || node >= len(s.c.nodes) {
		panic(fmt.Sprintf("cluster: %s on unknown node %d", what, node))
	}
	if s.clientNodes[node] {
		panic(fmt.Sprintf("cluster: node %d already has a client of shard set %q", node, s.name))
	}
	for _, g := range s.shards {
		if slices.Contains(g.Nodes(), node) {
			panic(fmt.Sprintf("cluster: %s on node %d collides with replica of %q", what, node, g.Name()))
		}
	}
	s.clientNodes[node] = true
}

// CheckTxns verifies the atomic-commitment contract of the run so
// far: committed transactions all-or-nothing across shards, aborted
// ones leaving no partial writes, no lock held past its deadline (see
// txn.Verify). A set without transactions passes vacuously.
func (s *ShardSet) CheckTxns() error { return s.checkTxns(shard.NewHistories(s.router)) }

func (s *ShardSet) checkTxns(hs *shard.Histories) error {
	if s.txn == nil {
		return nil
	}
	return txn.Verify(s.txn, hs)
}
