package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"hades/internal/scenario"
)

// kind selects how a workload's ops, latency samples and failures are
// read back from a finished run (see account in measure.go).
type kind uint8

const (
	kindKV     kind = iota // acked writes; latency from generator "open"
	kindTxn                // decided transfers; latency from generator "xfer"
	kindPubSub             // live subscriber deliveries
	kindRT                 // completed task instances
)

// workload is one benchmark workload: a scenario generated from a seed
// plus the rule that turns a run of it into ops and latencies.
type workload struct {
	name string
	// why records the reason the workload exists (BENCHMARK.json and the
	// README carry the same line).
	why  string
	kind kind
	// horizonMs is the full-size virtual horizon; -quick runs a tenth.
	horizonMs float64
	// strict says shard.Verify applies (semi-active shards only).
	strict bool
	spec   func(seed int64, horizonMs float64) scenario.Spec
}

// drainMs is the quiet tail every load block leaves before the horizon
// so in-flight ops complete inside the run.
const drainMs = 200

// session is the data-plane discipline every sharded workload uses.
var session = &scenario.SessionSpec{MaxBatch: 8, FlushIntervalMs: 0.5, PipelineDepth: 4}

var workloads = []workload{
	{
		name: "kv-steady", kind: kindKV, horizonMs: 10000, strict: true,
		why:  "semi-active kv, no faults, open 2000/vs zipf + 64 closed sessions: the eventq/netsim/session/shard/replication hot path and the no-change control",
		spec: func(seed int64, h float64) scenario.Spec { return kvSpec("kv-steady", seed, h, "semi-active", false) },
	},
	{
		name: "kv-passive-churn", kind: kindKV, horizonMs: 4000,
		why:  "passive checkpointing under a primary crash and a partition: the only place membership, consensus, rbcast, detector and park-resubmit work; shows dedup-table growth",
		spec: func(seed int64, h float64) scenario.Spec { return kvSpec("kv-passive-churn", seed, h, "passive", true) },
	},
	{
		name: "txn-contended", kind: kindTxn, horizonMs: 12000, strict: true,
		why:  "32 closed sessions of two-key transfers, zipf over 128 accounts, group commit: 2PC, lock queues and the decision log set p99 and the abort share",
		spec: txnSpec,
	},
	{
		name: "pubsub-fanout", kind: kindPubSub, horizonMs: 9000, strict: true,
		why:  "reliable durable topic plus a best-effort storm, owning primary crashes: fan-out and broadcast flood, the one client path not riding internal/session",
		spec: pubsubSpec,
	},
	{
		name: "rt-pipeline", kind: kindRT, horizonMs: 24000,
		why:  "EDF+SRP task sets and cross-node pipelines, no data plane: dispatcher, sched, HEUG and simkern preemption alone, so an engine-core gain shows here",
		spec: rtSpec,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// names returns n distinct keys; declaration order is zipf rank. The
// order is the same for every seed: permuting it moves the hot keys
// between shards, which changes the shape of the load (shard imbalance,
// lock contention) and not just its sample — the seed-to-seed spread of
// the txn-contended median latency doubles (2.8% to 5.7%).
func names(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%03d", prefix, i)
	}
	return out
}

// kvSpec is the 16-node keyed-write topology: 4 shards x 3 replicas on
// nodes 0-11, open-loop arrivals from nodes 12-13, closed sessions from
// nodes 14-15. churn adds the fault schedule at fixed fractions of the
// horizon (1s-2s crash, 2.67s-3.17s partition at full size).
func kvSpec(name string, seed int64, h float64, style string, churn bool) scenario.Spec {
	keys := names("k", 256)
	s := scenario.Spec{
		Name: name, Nodes: 16, Seed: seed, Costs: "default",
		Scheduler: "EDF", Policy: "none", HorizonMs: h,
		Shards: &scenario.ShardsSpec{
			Count: 4, ReplicasPer: 3, Style: style, Session: session,
			Load: []scenario.LoadSpec{
				{Name: "open", Mode: "open", Nodes: []int{12, 13}, Arrival: 2000,
					ZipfSkew: 0.9, Keys: keys, EndMs: h - drainMs},
				{Name: "closed", Mode: "closed", Nodes: []int{14, 15}, Sessions: 64, ThinkMs: 10,
					ZipfSkew: 0.9, Keys: keys, EndMs: h - drainMs},
			},
		},
	}
	if churn {
		s.Shards.CheckpointEvery = 8
		rest := []int{0, 1, 2, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
		s.Faults = []scenario.FaultSpec{
			// Shard 0's primary crashes and rejoins with a state transfer.
			{Kind: "crash", Node: 0, AtMs: h / 4, RecoverMs: h / 2},
			// Shard 1's serving quorum is cut off from every client: its
			// ops park until the heal, the gap a scheduled client sees.
			{Kind: "partition", Partition: [][]int{{3, 4}, rest}, AtMs: h * 2 / 3, HealMs: h*2/3 + h/8},
		}
	}
	return s
}

func txnSpec(seed int64, h float64) scenario.Spec {
	return scenario.Spec{
		Name: "txn-contended", Nodes: 16, Seed: seed, Costs: "default",
		Scheduler: "EDF", Policy: "none", HorizonMs: h,
		Shards: &scenario.ShardsSpec{
			Count: 4, ReplicasPer: 3, Style: "semi-active", Session: session,
			Load: []scenario.LoadSpec{
				{Name: "xfer", Workload: "txn", Mode: "closed", Nodes: []int{12, 13, 14, 15},
					Sessions: 32, ThinkMs: 5, ZipfSkew: 0.9, Keys: names("acct", 128), EndMs: h - drainMs},
			},
		},
	}
}

// pubsubSpec is the 13-node fan-out topology: 2 shards x 3 replicas on
// nodes 0-5, the telemetry publisher (and late joiner) on node 6,
// subscribers on 7-12, the best-effort storm published from 7 and 8.
//
// The storm pauses from 50 ms before to 100 ms after the crash and the
// recovery. A best-effort publish floods 12 copies to every node; when
// such a burst lands on a node together with a membership view-change
// broadcast, that broadcast's copy overruns its delivery bound and the
// engine panics scheduling into the past (ROADMAP: "the rbcast bound
// overrun becomes a LateDelivery violation") — on about one seed in
// six without the pauses.
func pubsubSpec(seed int64, h float64) scenario.Spec {
	crash, recover := h*4/15, h*8/15
	subNodes := []int{7, 8, 9, 10, 11, 12}
	var subs []scenario.SubscriberSpec
	for _, n := range subNodes {
		subs = append(subs, scenario.SubscriberSpec{Topic: "telemetry", Node: n})
	}
	// The late joiner converges from the durable history after the
	// crashed primary has rejoined.
	subs = append(subs, scenario.SubscriberSpec{Topic: "telemetry", Node: 6, JoinAtMs: h * 11 / 15})
	// Three sensor subscribers keep reliable deliveries at about 70% of
	// all ops, so the median latency sits inside the reliable body and
	// not on the boundary between the two populations.
	for _, n := range subNodes[3:] {
		subs = append(subs, scenario.SubscriberSpec{Topic: "sensors", Node: n})
	}
	const rate, before, after = 400, 50, 100
	return scenario.Spec{
		Name: "pubsub-fanout", Nodes: 13, Seed: seed, Costs: "default",
		Scheduler: "EDF", Policy: "none", HorizonMs: h,
		Shards: &scenario.ShardsSpec{
			Count: 2, ReplicasPer: 3, Style: "semi-active",
			Routes: map[string]int{"telemetry": 0, "sensors": 1},
		},
		PubSub: &scenario.PubSubSpec{
			Topics: []scenario.TopicSpec{
				{Name: "telemetry", Reliability: "reliable", DeadlineMs: 10, HistoryDepth: 8, Durable: true},
				{Name: "sensors", Reliability: "bestEffort"},
			},
			Publishers: []scenario.PublisherSpec{
				{Topic: "telemetry", Node: 6, SubmitEveryMs: 2, Count: int((h - drainMs) / 2)},
			},
			Subscribers: subs,
			Load: []scenario.LoadSpec{
				{Name: "storm", Mode: "open", Nodes: []int{7, 8}, Arrival: rate,
					Ramp: []scenario.RampStepSpec{
						{AtMs: crash - before, Rate: 0}, {AtMs: crash + after, Rate: rate},
						{AtMs: recover - before, Rate: 0}, {AtMs: recover + after, Rate: rate},
					},
					Keys: []string{"sensors"}, EndMs: h - drainMs},
			},
		},
		Faults: []scenario.FaultSpec{
			// The durable topic's owning primary (shard 0, node 0).
			{Kind: "crash", Node: 0, AtMs: crash, RecoverMs: recover},
		},
	}
}

// rtSpec is the paper's own core: per node three sporadic Spuri tasks
// sharing one resource, plus 8 periodic 3-stage pipelines crossing
// nodes. The seed draws every WCET within +-2% of its nominal value
// (whole microseconds), so the response times move with it.
func rtSpec(seed int64, h float64) scenario.Spec {
	rng := rand.New(rand.NewSource(seed))
	jit := func(us float64) float64 { return float64(int(us * (0.98 + 0.04*rng.Float64()))) }
	const nodes = 8
	s := scenario.Spec{
		Name: "rt-pipeline", Nodes: nodes, Seed: seed, Costs: "default",
		Scheduler: "EDF", Policy: "SRP", HorizonMs: h,
	}
	for n := 0; n < nodes; n++ {
		res := fmt.Sprintf("S%d", n)
		s.Tasks = append(s.Tasks,
			scenario.TaskSpec{Name: fmt.Sprintf("fast%d", n), Node: n, Resource: res,
				CBeforeUs: jit(200), CSUs: jit(150), CAfterUs: jit(250), DeadlineMs: 5, PeriodMs: 5},
			scenario.TaskSpec{Name: fmt.Sprintf("mid%d", n), Node: n, Resource: res,
				CBeforeUs: jit(500), CSUs: jit(300), CAfterUs: jit(400), DeadlineMs: 8, PeriodMs: 8},
			scenario.TaskSpec{Name: fmt.Sprintf("slow%d", n), Node: n, Resource: res,
				CBeforeUs: jit(1200), CSUs: jit(400), CAfterUs: jit(400), DeadlineMs: 20, PeriodMs: 20},
		)
	}
	for p := 0; p < nodes; p++ {
		s.Tasks = append(s.Tasks, scenario.TaskSpec{
			Name: fmt.Sprintf("pipe%d", p), Law: "periodic", DeadlineMs: 18, PeriodMs: 20,
			Stages: []scenario.StageSpec{
				{Name: "sample", Node: p, WCETUs: jit(400)},
				{Name: "fuse", Node: (p + 1) % nodes, WCETUs: jit(700)},
				{Name: "commit", Node: (p + 2) % nodes, WCETUs: jit(300)},
			},
		})
	}
	return s
}

// sweepSpec is the kv-steady topology under open-loop load only, from
// all four client nodes at one fixed rate: one point of the rate sweep.
func sweepSpec(seed int64, rate, windowMs float64) scenario.Spec {
	s := kvSpec(fmt.Sprintf("kv-sweep-%g", rate), seed, windowMs+drainMs, "semi-active", false)
	s.Shards.Load = []scenario.LoadSpec{
		{Name: "open", Mode: "open", Nodes: []int{12, 13, 14, 15}, Arrival: rate,
			ZipfSkew: 0.9, Keys: s.Shards.Load[0].Keys, EndMs: windowMs},
	}
	return s
}

// writeScenario renders a scenario to a JSON file under dir and returns
// its path: the program under test only ever receives generated files.
func writeScenario(dir string, spec scenario.Spec, label string) (string, error) {
	data, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return "", fmt.Errorf("encoding scenario %s: %w", spec.Name, err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("scenario_%s_seed%d%s.json", spec.Name, spec.Seed, label))
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}
