package cluster_test

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"unsafe"
	"weak"

	"hades/internal/cluster"
	"hades/internal/netsim"
	"hades/internal/pubsub"
	"hades/internal/simkern"
	"hades/internal/vtime"
)

// recordTap passes every message through and, from the instant armAt
// on, takes a weak pointer to the first replication op record of each
// kind it sees on the wire, and to the plane record that owns it.
type recordTap struct {
	eng   *simkern.Engine
	armAt vtime.Time
	weak  map[string]weak.Pointer[byte]
}

func (r *recordTap) Judge(m *netsim.Message) netsim.Verdict {
	v := reflect.ValueOf(m.Payload)
	if r.eng.Now() >= r.armAt && v.Type().String() == "replication.batchMsg" {
		ops := v.FieldByName("Ops")
		for i := range ops.Len() {
			rec := ops.Index(i)
			r.take("replication.op", rec.Addr().UnsafePointer())
			if owner := rec.FieldByName("owner"); !owner.IsNil() {
				r.take(owner.Elem().Type().String(), owner.Elem().UnsafePointer())
			}
		}
	}
	return netsim.Verdict{Fate: netsim.FateDeliver}
}

func (r *recordTap) take(kind string, p unsafe.Pointer) {
	if _, ok := r.weak[kind]; !ok {
		r.weak[kind] = weak.Make((*byte)(p))
	}
}

// TestOpRecordsDieWithTheirMessages: a kv client, a transaction client
// and a reliable publisher share one shard group. Each replicated op is
// one record that its messages carry; once the run drains, nothing the
// cluster keeps reaches any of them — no table keyed by request id holds
// a replication record, a shard op, a coordinator decision entry or a
// publish attempt for the rest of the run.
func TestOpRecordsDieWithTheirMessages(t *testing.T) {
	c := cluster.New(cluster.Config{Seed: 29})
	c.AddNodes(6) // one shard × 3 replicas, kv client, txn client, publisher
	c.ConnectAll(100*us, 300*us)
	set := c.Shards(1, 3)
	kv := set.ClientAt(3)
	tx := set.TxnClientAt(4)
	if _, err := set.Topic("telemetry", pubsub.QoS{Reliability: pubsub.Reliable}); err != nil {
		t.Fatal(err)
	}
	pub, err := set.PublisherAt("telemetry", 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := set.SubscriberAt("telemetry", 3); err != nil {
		t.Fatal(err)
	}
	for i := range 200 {
		at := vtime.Time(vtime.Duration(i) * ms)
		c.At(at, func() {
			kv.Submit(fmt.Sprintf("k%d", i%8), int64(i+1))
			tx.Transfer(fmt.Sprintf("acct-%d", i%5), fmt.Sprintf("acct-%d", (i+1)%5), 1)
			pub.Publish(int64(i))
		})
	}
	tap := &recordTap{eng: c.Engine(), armAt: vtime.Time(50 * ms), weak: map[string]weak.Pointer[byte]{}}
	c.InjectFault(tap)
	c.Run(500 * ms)
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}

	runtime.GC()
	runtime.GC()
	for _, kind := range []string{"replication.op", "*shard.pendingOp", "*txn.decisionEntry", "*pubsub.pubAttempt"} {
		w, ok := tap.weak[kind]
		if !ok {
			t.Fatalf("no %s crossed the wire after %s (saw %d kinds)", kind, tap.armAt, len(tap.weak))
		}
		if w.Value() != nil {
			t.Errorf("a %s from mid-run is still reachable after the run drained", kind)
		}
	}
	runtime.KeepAlive(c)
}
