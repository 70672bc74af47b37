package scenario

import (
	"path/filepath"
	"testing"

	"hades/internal/pubsub"
)

// TestRegressCorpus: every file under testdata/regress is a fault-free
// scenario that once ran to a clean exit while losing work — audits
// silent, transfers aborted, samples undelivered. Each must now pass
// every audit and finish all of what it started: every transfer begun
// commits, every reliable topic is complete.
//
// txn-pubsub-one-shard.json: a txn client on node 3 and publisher 3 on
// one shard. The decision log's and the sample's dedup tags were equal,
// so 1 of 67 transfers committed and 42 of 43 acked samples arrived.
func TestRegressCorpus(t *testing.T) {
	files, err := filepath.Glob("testdata/regress/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("testdata/regress is empty")
	}
	for _, f := range files {
		t.Run(filepath.Base(f), func(t *testing.T) {
			spec, err := Load(f)
			if err != nil {
				t.Fatal(err)
			}
			c, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			res := c.Run(spec.Horizon())
			if err := c.Verify(); err != nil {
				t.Errorf("audit: %v", err)
			}
			for _, cl := range res.TxnClients {
				if cl.Committed != cl.Begun {
					t.Errorf("txn client n%d committed %d of %d transfers (%d deadline aborts)",
						cl.Node, cl.Committed, cl.Begun, cl.DeadlineAborts)
				}
			}
			for _, set := range c.ShardSets() {
				ps := set.PubSubPlane()
				if ps == nil {
					continue
				}
				for _, topic := range ps.Topics() {
					if topic.Stats().QoS.Reliability != pubsub.Reliable {
						continue
					}
					if err := ps.CheckComplete(topic.Name()); err != nil {
						t.Error(err)
					}
				}
			}
		})
	}
}
