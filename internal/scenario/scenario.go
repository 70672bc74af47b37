// Package scenario defines the JSON scenario format the hades command
// runs, reports on and analyses: a §5.1-style task set plus platform,
// topology, placement, fault-injection and policy choices, loadable
// from a file or from the built-in catalogue (builtins/*.json, read
// through the same strict decoder).
//
// A scenario builds onto the cluster runtime layer, so distributed and
// faulty workloads are data, not code: "nodes" sizes the platform,
// "links" declares bounded-delay point-to-point links (omit for a full
// mesh), "placement" pins tasks or stages to nodes, "faults" schedules
// deterministic omission/delay/crash(/recover) injection, "groups"
// declares view-synchronous membership groups with optional replicated
// state machines and a request driver, and "shards" declares a sharded
// data plane (consistent-hash routing over replication groups with
// retrying/redirecting clients, plus "txns" transaction clients
// driving deadline-carrying cross-shard atomic transfers) — the
// crash/partition/rejoin workloads of the membership-churn,
// partition-split, sharded-kv and bank-transfer builtins are pure
// data.
//
// The package is one lowering per plane, one file each: tasks.go
// (platform, task set, scheduler / policy / costs / law), faults.go,
// shards.go (replica layout, kv and txn clients, session knobs),
// load.go (the generators the shards and pubsub blocks share),
// pubsub.go, groups.go and observe.go each hold the plane's spec types,
// its validateX and its attachX side by side, reading the same name
// tables, so what validation accepts is what Build can lower. This file
// keeps the Spec, the loader and the two fixed-order sequences over the
// planes: withDefaults (validate) and Build (attach). A scenario Load
// accepts builds and runs; anything else is an error naming the field.
package scenario

import (
	"bytes"
	"embed"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"

	"hades/internal/cluster"
	"hades/internal/load"
	"hades/internal/replication"
	"hades/internal/vtime"
)

// Spec is a full scenario.
type Spec struct {
	Name      string     `json:"name"`
	Nodes     int        `json:"nodes"`
	Seed      int64      `json:"seed"`
	Costs     string     `json:"costs"`     // "default" | "zero"
	Scheduler string     `json:"scheduler"` // "EDF" | "RM" | "DM" | "Spring" | "best-effort"
	Policy    string     `json:"policy"`    // "SRP" | "PCP" | "none"
	HorizonMs float64    `json:"horizonMs"`
	Tasks     []TaskSpec `json:"tasks"`
	// Links declares the topology; empty with Nodes > 1 means a full
	// mesh with the cluster's default bounds.
	Links []LinkSpec `json:"links,omitempty"`
	// Faults schedules deterministic fault injection.
	Faults []FaultSpec `json:"faults,omitempty"`
	// Groups declares membership groups (and replicated machines).
	Groups []GroupSpec `json:"groups,omitempty"`
	// Shards declares a sharded data plane (consistent-hash routing
	// over replication groups with a client request layer).
	Shards *ShardsSpec `json:"shards,omitempty"`
	// PubSub declares a QoS-aware publish-subscribe plane over the
	// sharded data plane (requires Shards).
	PubSub *PubSubSpec `json:"pubsub,omitempty"`
	// Placement overrides node assignments: "task" pins a Spuri task
	// (or every stage of a pipeline), "task/stage" pins one stage.
	Placement map[string]int `json:"placement,omitempty"`
	// Observe tunes trace sampling and event-log retention.
	Observe *ObserveSpec `json:"observe,omitempty"`
}

// Load reads a scenario from a JSON file.
func Load(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, fmt.Errorf("scenario: %w", err)
	}
	return decode(data, path)
}

// decode is the one door to a Spec, for user files and builtins alike.
// Decoding is strict: a misspelt or retired key is an error that names
// it, not a knob silently left at its default.
func decode(data []byte, origin string) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return s, fmt.Errorf("scenario: parsing %s: %w", origin, err)
	}
	if dec.More() {
		return s, fmt.Errorf("scenario: parsing %s: trailing data after the scenario object", origin)
	}
	return s.withDefaults()
}

// Open resolves a command line's scenario selection: exactly one of a
// built-in name and a JSON file path.
func Open(builtin, path string) (Spec, error) {
	switch {
	case (builtin == "") == (path == ""):
		return Spec{}, fmt.Errorf("scenario: need exactly one of -builtin <name> or -scenario <file>")
	case builtin != "":
		return Builtin(builtin)
	}
	return Load(path)
}

// builtinFS is the catalogue: one scenario file per builtin, named
// after it. builtins/README.md says why each looks the way it does.
//
//go:embed builtins/*.json
var builtinFS embed.FS

// Builtin returns a named built-in scenario, decoded afresh on every
// call so no caller can mutate what the next one gets.
func Builtin(name string) (Spec, error) {
	origin := "builtins/" + name + ".json"
	data, err := builtinFS.ReadFile(origin)
	if err != nil {
		return Spec{}, fmt.Errorf("scenario: unknown builtin %q (have %v)", name, BuiltinNames())
	}
	return decode(data, origin)
}

// BuiltinNames lists the catalogue, sorted.
func BuiltinNames() []string {
	entries, err := builtinFS.ReadDir("builtins")
	if err != nil {
		panic(err) // the embed pattern guarantees the directory
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = strings.TrimSuffix(e.Name(), ".json")
	}
	return names
}

// maxNodes bounds the platform: the implicit topology is a full mesh,
// quadratic in the node count.
const maxNodes = 1024

// withDefaults fills the defaulted fields and validates the spec, plane
// by plane. Every rule Build relies on is checked here, so Build never
// re-validates.
func (s Spec) withDefaults() (Spec, error) {
	if s.Nodes <= 0 {
		s.Nodes = 1
	}
	if s.Scheduler == "" {
		s.Scheduler = "EDF"
	}
	if s.HorizonMs <= 0 {
		s.HorizonMs = 500
	}
	if s.Nodes > maxNodes {
		return s, fmt.Errorf("scenario %q: %d nodes (at most %d)", s.Name, s.Nodes, maxNodes)
	}
	if len(s.Tasks) == 0 && len(s.Groups) == 0 && s.Shards == nil {
		return s, fmt.Errorf("scenario %q has no tasks, no groups and no shards", s.Name)
	}
	if err := s.validateTasks(); err != nil {
		return s, err
	}
	if err := s.validateFaults(); err != nil {
		return s, err
	}
	// Generator names key metric series and report rows, so they are
	// unique across the shards and pubsub blocks.
	loadNames := map[string]bool{}
	if err := s.validateShards(loadNames); err != nil {
		return s, err
	}
	if err := s.validateGroups(); err != nil {
		return s, err
	}
	if err := s.validatePubSub(loadNames); err != nil {
		return s, err
	}
	return s, s.validateObserve()
}

// Build assembles a runnable cluster from the scenario: platform,
// topology, application, task placement, activation sources, fault
// schedules and data planes. Run it with c.Run(spec.Horizon()). The
// attach order is part of the run description: event-queue ties break
// by insertion order, and port-bind and metric-registration order show
// in the exports.
func (s Spec) Build() (*cluster.Cluster, error) {
	c, _, err := s.build()
	return c, err
}

// build is Build that also returns the replica group of each group
// declaring a style, declaration order.
func (s Spec) build() (*cluster.Cluster, []*replication.Group, error) {
	costs, err := s.CostBook()
	if err != nil {
		return nil, nil, err
	}
	c := cluster.New(s.Observe.configure(cluster.Config{Seed: s.Seed, Costs: costs}))
	if err := s.attachTasks(c); err != nil {
		return nil, nil, err
	}
	if err := s.attachFaults(c); err != nil {
		return nil, nil, err
	}
	if err := s.attachShards(c); err != nil {
		return nil, nil, err
	}
	return c, s.attachGroups(c), nil
}

// named resolves one enum value. Each enum is a single name→value
// table that validation and Build both read through here, so the names
// a file may use and the names Build can lower are one set, and a miss
// reads the same wherever it surfaces. what is the message up to the
// offending name ("task \"t\" has unknown law"); an empty key in the
// table is the documented default.
func named[V any](s Spec, table map[string]V, name, what string, args ...any) (V, error) {
	v, ok := table[name]
	if !ok {
		accepted := slices.DeleteFunc(slices.Sorted(maps.Keys(table)), func(n string) bool { return n == "" })
		return v, fmt.Errorf("scenario %q: %s %q (want one of %s)", s.Name, fmt.Sprintf(what, args...), name, strings.Join(accepted, ", "))
	}
	return v, nil
}

// knownNode rejects a node index outside [0, s.Nodes). who is the
// message's subject up to its preposition ("shard client 2 on").
func (s Spec) knownNode(n int, who string, args ...any) error {
	if n >= 0 && n < s.Nodes {
		return nil
	}
	return fmt.Errorf("scenario %q: %s unknown node %d (have %d)", s.Name, fmt.Sprintf(who, args...), n, s.Nodes)
}

// networked rejects a spec with nothing to carry messages between
// nodes. who is the subject and its verb ("shards need").
func (s Spec) networked(who string, args ...any) error {
	if s.Nodes > 1 || len(s.Links) > 0 {
		return nil
	}
	return fmt.Errorf("scenario %q: %s a network (nodes > 1 or links)", s.Name, fmt.Sprintf(who, args...))
}

func us(f float64) vtime.Duration { return vtime.Duration(f * float64(vtime.Microsecond)) }
func msd(f float64) vtime.Duration {
	return vtime.Duration(f * float64(vtime.Millisecond))
}

// fixedDriver rejects a submission interval every cannot lay out: one
// that lowers to under a nanosecond (every would never advance), or
// one that puts more than load.MaxOps submissions before the
// horizon — the guard open-loop generators already have. count, when
// positive, caps the submissions first. who is the driver's owner.
func (s Spec) fixedDriver(everyMs float64, count int, who string, args ...any) error {
	step := msd(everyMs)
	if step <= 0 {
		return fmt.Errorf("scenario %q: %s needs a positive submitEveryMs (at least 1ns; got %gms)", s.Name, fmt.Sprintf(who, args...), everyMs)
	}
	n := int64((s.Horizon() + step - 1) / step)
	if count > 0 && int64(count) < n {
		n = int64(count)
	}
	if n > load.MaxOps {
		return fmt.Errorf("scenario %q: %s submitting every %gms lays out %d submissions before the %gms horizon (at most %d)",
			s.Name, fmt.Sprintf(who, args...), everyMs, n, s.HorizonMs, load.MaxOps)
	}
	return nil
}

// every lays out one fixed-interval driver as a chain: fire(i) runs
// at instant i·everyMs for each such instant before the horizon (at
// most count of them when count > 0), and each firing schedules the
// next, so the queue holds one of its submissions at a time.
func (s Spec) every(c *cluster.Cluster, everyMs float64, count int, fire func(i int)) {
	d := &ticker{at: c.Chain(), fire: fire, step: msd(everyMs), end: s.Horizon(), count: count}
	d.tick = d.run
	d.schedule()
}

// ticker is one fixed-interval driver; i is its next submission.
type ticker struct {
	at    func(vtime.Time, func())
	fire  func(i int)
	step  vtime.Duration
	end   vtime.Duration
	count int
	i     int
	tick  func() // d.run, bound once
}

// schedule queues submission i at i·step, unless the horizon or the
// count ends the driver first.
func (d *ticker) schedule() {
	if t := vtime.Duration(d.i) * d.step; t < d.end && (d.count <= 0 || d.i < d.count) {
		d.at(vtime.Time(t), d.tick)
	}
}

// run fires submission i, then chains the next.
func (d *ticker) run() {
	d.fire(d.i)
	d.i++
	d.schedule()
}

// Horizon returns the simulation horizon.
func (s Spec) Horizon() vtime.Duration { return msd(s.HorizonMs) }
