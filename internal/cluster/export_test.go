package cluster

import (
	"hades/internal/netsim"
	"hades/internal/shard"
	"hades/internal/txn"
)

// InjectFault lets the external tests chain their own fault hooks (a
// slow port, a retention tap) the way the typed fault methods do.
func (c *Cluster) InjectFault(h netsim.FaultHook) { c.injectFault(h) }

// Groups and TxnPlane hand the external tests the live planes behind a
// set's Result rows, to compare the rows against and to doctor what the
// audits read; TxnPlane is nil when the set declared no transactions.
func (s *ShardSet) Groups() []*shard.Group { return s.shards }
func (s *ShardSet) TxnPlane() *txn.Plane   { return s.txn }

// Histories indexes the set's groups' histories as Verify does.
func (s *ShardSet) Histories() *shard.Histories { return shard.NewHistories(s.router) }
