// Package layers holds the isolated per-layer drivers of the benchmark:
// each builds the smallest harness its layer's constructor needs, times
// N calls into the layer's public functions to quiescence, and reports
// host nanoseconds and allocations per call. The layers are measured
// from outside: nothing here reaches into a package's internals, so an
// optimisation inside a layer cannot move, remove or redefine the
// number that judges it.
package layers

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"hades/internal/monitor"
	"hades/internal/netsim"
	"hades/internal/simkern"
	"hades/internal/vtime"
)

const (
	us = vtime.Microsecond
	ms = vtime.Millisecond
)

// Def names one driver metric: its unit and the end-to-end metric it is
// expected to move.
type Def struct {
	Name  string
	Unit  string
	Moves string
}

// Defs lists every metric the drivers report, ledger order.
var Defs = []Def{
	{"eventq.push_pop_ns", "ns", "host_ops_per_s"},
	{"eventq.cancel_ns", "ns", "host_ops_per_s"},
	{"simkern.event_ns", "ns", "host_ops_per_s"},
	{"simkern.thread_switch_ns", "ns", "host_ops_per_s"},
	{"netsim.msg_ns", "ns", "host_ops_per_s"},
	{"netsim.msg_allocs", "1/msg", "allocs_per_op"},
	{"rbcast.bcast_ns", "ns", "host_ops_per_s"},
	{"rbcast.msgs_per_bcast", "1/bcast", "host_ops_per_s"},
	{"consensus.round_ns", "ns", "host_ops_per_s"},
	{"fault.detector_events_per_node_vs", "1/vs", "host_ops_per_s"},
	{"membership.view_change_ns", "ns", "host_ops_per_s"},
	{"membership.idle_events_per_vs", "1/vs", "host_ops_per_s"},
	{"replication.semi_active_op_ns", "ns", "host_ops_per_s"},
	{"replication.passive_op_ns", "ns", "host_ops_per_s"},
	{"replication.batch8_op_ns", "ns", "host_ops_per_s"},
	{"replication.checkpoint_ns_at_10k_seen", "ns", "host_ops_per_s"},
	{"replication.op_allocs", "1/op", "allocs_per_op"},
	{"session.batcher_item_ns", "ns", "host_ops_per_s"},
	{"session.call_ns", "ns", "host_ops_per_s"},
	{"shard.ring_lookup_ns", "ns", "host_ops_per_s"},
	{"shard.submit_ack_ns", "ns", "host_ops_per_s"},
	{"shard.submit_ack_allocs", "1/op", "allocs_per_op"},
	{"txn.transfer_ns", "ns", "host_ops_per_s"},
	{"txn.transfer_allocs", "1/op", "allocs_per_op"},
	{"txn.events_per_txn", "1/op", "host_ops_per_s"},
	{"pubsub.reliable_sample_ns", "ns", "host_ops_per_s"},
	{"pubsub.besteffort_sample_ns", "ns", "host_ops_per_s"},
	{"pubsub.delivery_allocs", "1/delivery", "allocs_per_op"},
	{"dispatcher.instance_ns", "ns", "host_ops_per_s"},
	{"dispatcher.instance_allocs", "1/op", "allocs_per_op"},
	{"sched.edf_srp_ns_per_vs", "ns/vs", "host_ops_per_s"},
	{"storage.write_ns", "ns", "host_ops_per_s"},
	{"trace.op_trace_ns", "ns", "host_ops_per_s"},
	{"trace.hist_record_ns", "ns", "host_ops_per_s"},
	{"metrics.scrape_ns_100_series", "ns", "host_ops_per_s"},
	{"metrics.counter_inc_ns", "ns", "host_ops_per_s"},
	{"monitor.record_ns", "ns", "host_ops_per_s"},
	{"monitor.record_full_ns", "ns", "host_ops_per_s"},
	{"load.layout_ns_per_op", "ns", "setup_s"},
	{"scenario.load_ns", "ns", "setup_s"},
	{"scenario.build_ns", "ns", "setup_s"},
	{"cluster.result_ns", "ns", "finish_s"},
	{"report.build_ns", "ns", "finish_s"},
	{"report.encode_ns", "ns", "finish_s"},
}

// Inputs are the scenario files the scenario, cluster and report
// drivers run on (the other drivers build their harness in code).
type Inputs struct {
	// Scenario is a full-size kv-steady file: 20k pre-laid arrivals, the
	// case set-up time is about.
	Scenario string
	// Short is the same workload at a short horizon, run to completion
	// to give the result and report drivers a finished cluster.
	Short string
}

// out collects one Run's samples.
type out map[string]float64

// driver measures one layer at the given scale of its iteration count.
type driver func(o out, scale float64, in Inputs) error

var drivers = []driver{
	eventqDriver, simkernDriver, netsimDriver, rbcastDriver, consensusDriver,
	detectorDriver, membershipDriver, replicationDriver, sessionDriver,
	shardDriver, txnDriver, pubsubDriver, dispatcherDriver, schedDriver,
	storageDriver, traceDriver, metricsDriver, monitorDriver, loadDriver,
	scenarioDriver, finishDriver,
}

// Run executes every driver and returns one value per entry of Defs.
// scale multiplies the iteration counts (1 normally, 0.1 for a smoke
// run).
func Run(scale float64, in Inputs) (map[string]float64, error) {
	o := out{}
	for _, d := range drivers {
		if err := d(o, scale, in); err != nil {
			return nil, err
		}
	}
	for _, d := range Defs {
		if _, ok := o[d.Name]; !ok {
			return nil, fmt.Errorf("layers: no driver reported %s", d.Name)
		}
	}
	if len(o) != len(Defs) {
		return nil, fmt.Errorf("layers: drivers reported %d metrics, Defs lists %d", len(o), len(Defs))
	}
	return o, nil
}

// scaled returns n iterations at the given scale, at least min.
func scaled(n int, scale float64, min int) int {
	if v := int(float64(n) * scale); v > min {
		return v
	}
	return min
}

// cost is what one timed pass took.
type cost struct {
	ns     float64 // host nanoseconds
	allocs float64 // heap objects allocated
}

// timeIt runs pass three times, each after a forced collection, and
// returns the pass with the median time: one cold or interrupted pass
// does not set the number. setup builds a fresh harness per pass and
// is not timed.
func timeIt[H any](setup func() H, pass func(H)) cost {
	costs := make([]cost, 3)
	for i := range costs {
		h := setup()
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		pass(h)
		costs[i].ns = float64(time.Since(t0).Nanoseconds())
		runtime.ReadMemStats(&m1)
		costs[i].allocs = float64(m1.Mallocs - m0.Mallocs)
	}
	sort.Slice(costs, func(i, j int) bool { return costs[i].ns < costs[j].ns })
	return costs[1]
}

// timePass is timeIt for a pass that needs no harness.
func timePass(pass func()) cost {
	return timeIt(func() struct{} { return struct{}{} }, func(struct{}) { pass() })
}

// keyspace returns the 256 keys the keyed drivers draw from.
func keyspace() []string {
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%03d", i)
	}
	return keys
}

// platform is an engine with n zero-switch-cost processors on a full
// mesh: the harness most service layers need.
type platform struct {
	eng   *simkern.Engine
	net   *netsim.Network
	nodes []int
}

func newPlatform(n int, seed int64) platform {
	eng := simkern.NewEngine(monitor.NewLog(1), seed)
	nodes := make([]int, n)
	for i := range nodes {
		eng.AddProcessor(fmt.Sprintf("n%d", i), 0)
		nodes[i] = i
	}
	net := netsim.New(eng, netsim.DefaultConfig())
	net.ConnectAll(nodes, 100*us, 300*us)
	return platform{eng: eng, net: net, nodes: nodes}
}
