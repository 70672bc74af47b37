package scenario

import (
	"fmt"

	"hades/internal/load"
	"hades/internal/vtime"
)

// RampStepSpec changes an open-loop arrival rate at an instant: from
// AtMs on, arrivals come at Rate ops/sec (until the next step).
// Instants must strictly ascend; a zero Rate is a plateau with no
// arrivals until the next step.
type RampStepSpec struct {
	AtMs float64 `json:"atMs"`
	Rate float64 `json:"rate"`
}

// HotspotShiftSpec rotates a zipf-ranked keyspace at an instant: from
// AtMs on, the key at declaration rank r serves rank (r+Shift) mod
// len(keys) — the hot key moves mid-run, the signal hot-shard
// detection must chase. Instants must strictly ascend.
type HotspotShiftSpec struct {
	AtMs  float64 `json:"atMs"`
	Shift int     `json:"shift"`
}

// LoadSpec declares one load generator attached to the sharded data
// plane: a population of simulated client sessions multiplexed
// round-robin over the clients on Nodes (a node with a declared
// client reuses it; one without gets a default client — a transaction
// client for txn workloads). Closed-loop sessions submit, wait for
// the ack, think, and go again; open-loop arrivals come on a Poisson
// schedule, each arrival scheduling the next, regardless of
// completions. All
// randomness is drawn from seeds derived from the scenario seed — the
// engine's stream is never touched.
type LoadSpec struct {
	// Name labels the generator in reports and metric series
	// (load.<name>.offered / load.<name>.acked); names must be unique.
	Name string `json:"name"`
	// Workload is "kv" (single-key writes, the default) or "txn"
	// (two-key atomic transfers between consecutive key pairs). Loads
	// declared in a pubsub block implicitly publish ("pubsub", with
	// Keys naming the target topics).
	Workload string `json:"workload,omitempty"`
	// Mode is "closed" (Sessions submit→ack→think loops, the default)
	// or "open" (Poisson arrivals at Arrival ops/sec).
	Mode string `json:"mode,omitempty"`
	// Nodes lists the client nodes the workload multiplexes over.
	Nodes []int `json:"nodes"`
	// Sessions and ThinkMs parameterise the closed loop: Sessions
	// concurrent sessions, each thinking a uniform draw from
	// [ThinkMs/2, 3·ThinkMs/2] between an ack and the next submission.
	Sessions int     `json:"sessions,omitempty"`
	ThinkMs  float64 `json:"thinkMs,omitempty"`
	// Arrival and Ramp parameterise the open loop (ops/sec).
	Arrival float64        `json:"arrival,omitempty"`
	Ramp    []RampStepSpec `json:"ramp,omitempty"`
	// Keys is the keyspace; declaration order = zipf rank (first key
	// hottest).
	Keys []string `json:"keys"`
	// ZipfSkew skews the key choice; HotspotShift rotates the ranking
	// mid-run (requires a skew).
	ZipfSkew     float64            `json:"zipfSkew,omitempty"`
	HotspotShift []HotspotShiftSpec `json:"hotspotShift,omitempty"`
	// EndMs closes the submission window, which opens at time zero
	// (0 = the horizon). Each generator submits at most
	// load.MaxOps ops.
	EndMs float64 `json:"endMs,omitempty"`
}

// loadBlock is where a load generator is declared. The shards and
// pubsub blocks share one LoadSpec, one validator and one lowering;
// this carries what differs between them.
type loadBlock struct {
	// kind is the subject of the block's error messages.
	kind string
	// workloads maps the block's accepted workload names (the empty
	// default included) to the op shape; otherwise says why any other
	// is refused.
	workloads map[string]load.Workload
	otherwise string
	// publishes marks the pubsub block: its generators' Keys must name
	// topics.
	publishes bool
	// endpoint names what Nodes host ("client", "publisher").
	endpoint string

	// Filled in per spec, for validation only: the shards block's
	// node-role ledger, through which its generators claim their client
	// nodes, and the pubsub block's declared topics.
	roles  roles
	topics map[string]bool
}

var (
	// shardsLoads: kv or txn generators on client nodes that host no
	// replica.
	shardsLoads = loadBlock{kind: "load", workloads: map[string]load.Workload{"": load.KV, "kv": load.KV, "txn": load.Txn},
		otherwise: "want kv or txn; pubsub loads live in the pubsub block", endpoint: "client"}
	// pubsubLoads: generators that publish to declared topics from any
	// node — publishers co-locate with replicas legally.
	pubsubLoads = loadBlock{kind: "pubsub load", workloads: map[string]load.Workload{"": load.Pub, "pubsub": load.Pub},
		otherwise: "a pubsub-block load always publishes", publishes: true, endpoint: "publisher"}
)

// loadModes is the arrival-discipline enum's single source (see named).
var loadModes = map[string]load.Mode{"": load.Closed, "closed": load.Closed, "open": load.Open}

// config lowers the spec to the load-plane configuration. The horizon
// bounds the default submission window; the seed (already derived per
// generator) feeds the generator's local random sources.
func (b loadBlock) config(ls LoadSpec, seed int64, horizon vtime.Duration) load.Config {
	end := vtime.Time(horizon)
	if ls.EndMs > 0 {
		end = vtime.Time(msd(ls.EndMs))
	}
	cfg := load.Config{
		Name:     ls.Name,
		Mode:     loadModes[ls.Mode],
		Workload: b.workloads[ls.Workload],
		Sessions: ls.Sessions,
		Think:    msd(ls.ThinkMs),
		Rate:     ls.Arrival,
		Keys:     ls.Keys,
		ZipfSkew: ls.ZipfSkew,
		Seed:     seed,
		End:      end,
	}
	for _, st := range ls.Ramp {
		cfg.Ramp = append(cfg.Ramp, load.RampStep{At: vtime.Time(msd(st.AtMs)), Rate: st.Rate})
	}
	for _, hs := range ls.HotspotShift {
		cfg.HotspotShift = append(cfg.HotspotShift, load.HotspotShift{At: vtime.Time(msd(hs.AtMs)), Shift: hs.Shift})
	}
	return cfg
}

// validateLoads rejects the malformed generators of one block loudly.
// names carries every generator name declared so far in the spec.
func (s Spec) validateLoads(b loadBlock, loads []LoadSpec, names map[string]bool) error {
	for i, ls := range loads {
		if ls.Name == "" {
			return fmt.Errorf("scenario %q: %s %d unnamed", s.Name, b.kind, i)
		}
		if names[ls.Name] {
			return fmt.Errorf("scenario %q: duplicate load %q (metric series would collide)", s.Name, ls.Name)
		}
		names[ls.Name] = true
		if _, err := named(s, loadModes, ls.Mode, "%s %q has unknown mode", b.kind, ls.Name); err != nil {
			return err
		}
		workload, ok := b.workloads[ls.Workload]
		if !ok {
			return fmt.Errorf("scenario %q: %s %q has unknown workload %q (%s)", s.Name, b.kind, ls.Name, ls.Workload, b.otherwise)
		}
		if len(ls.Nodes) == 0 {
			return fmt.Errorf("scenario %q: %s %q names no %s nodes", s.Name, b.kind, ls.Name, b.endpoint)
		}
		if b.publishes {
			if len(ls.Keys) == 0 {
				return fmt.Errorf("scenario %q: %s %q names no topics in keys", s.Name, b.kind, ls.Name)
			}
			for _, k := range ls.Keys {
				if !b.topics[k] {
					return fmt.Errorf("scenario %q: %s %q targets undeclared topic %q", s.Name, b.kind, ls.Name, k)
				}
			}
		}
		if ls.EndMs < 0 {
			return fmt.Errorf("scenario %q: %s %q has a negative window end %gms", s.Name, b.kind, ls.Name, ls.EndMs)
		}
		if err := b.config(ls, 1, s.Horizon()).Validate(); err != nil {
			return fmt.Errorf("scenario %q: %s: %v", s.Name, b.kind, err)
		}
		seen := map[int]bool{}
		for _, n := range ls.Nodes {
			// A generator reuses the client its node already has; only a
			// client of the other kind (or a replica) is in its way.
			if err := s.claim(b.roles, n, clientRoles[workload], true, "%s %q", b.kind, ls.Name); err != nil {
				return err
			}
			if seen[n] {
				return fmt.Errorf("scenario %q: %s %q lists node %d twice", s.Name, b.kind, ls.Name, n)
			}
			seen[n] = true
		}
	}
	return nil
}

// attachLoads lowers one block's generators, declaration order: each
// is configured under its derived seed and handed to the
// block's sink with its own copy of the node list. The seeds are part
// of the run description.
func (s Spec) attachLoads(b loadBlock, loads []LoadSpec, seedOf func(i int) int64, attach func(load.Config, []int) *load.Generator) {
	for i, ls := range loads {
		attach(b.config(ls, seedOf(i), s.Horizon()), append([]int(nil), ls.Nodes...))
	}
}

// loadSeed derives generator i's seed from the scenario seed — a
// distinct stream per generator, disjoint from the client pickers'.
// The shards block's generators count from 0, the pubsub block's on
// from there.
func loadSeed(seed int64, i int) int64 {
	return seed*1000003 + int64(i+1)*104729
}
