// Package load is the workload harness of the HADES reproduction: an
// open/closed-loop generator driving simulated client sessions
// through the sharded data plane on the virtual clock.
//
// Closed-loop mode multiplexes N logical sessions over the attached
// clients: each session submits one operation, waits for its
// acknowledgment, thinks for a sampled interval, and submits the
// next — offered load tracks the system's capacity, the classic
// interactive discipline. Open-loop mode precomputes a Poisson
// arrival schedule (exponential inter-arrivals, piecewise rate from
// the ramp schedule) and submits regardless of completions — offered
// load is exogenous, the discipline that exposes saturation.
//
// Determinism contract: every random draw (keys, think times,
// inter-arrivals) comes from a local source seeded by the generator's
// derived seed, consumed either at build time (open-loop schedule,
// laid out before the run starts) or in per-session order (closed
// loop, one source per session) — the engine's random stream is never
// touched, so attaching a generator changes only the workload it
// submits, and the same description plus the same seed replays the
// identical run.
package load

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"hades/internal/metrics"
	"hades/internal/vtime"
)

// Mode selects the generator's arrival discipline.
type Mode uint8

const (
	// Closed runs Sessions concurrent submit→ack→think loops.
	Closed Mode = iota
	// Open submits on a precomputed Poisson schedule.
	Open
)

// String returns the mode name.
func (m Mode) String() string {
	if m == Open {
		return "open"
	}
	return "closed"
}

// Workload selects the op shape the generator drives.
type Workload uint8

const (
	// KV submits single-key writes through shard clients.
	KV Workload = iota
	// Txn submits two-key transfers through transaction clients.
	Txn
	// Pub publishes samples into pub/sub topics: Keys are topic names
	// (declaration order = zipf rank, so a skewed generator concentrates
	// its storm on the first topic).
	Pub
)

// String returns the workload name.
func (w Workload) String() string {
	switch w {
	case Txn:
		return "txn"
	case Pub:
		return "pubsub"
	}
	return "kv"
}

// RampStep changes the open-loop arrival rate at an instant: from At
// on, arrivals come at Rate ops/sec (until the next step).
type RampStep struct {
	At   vtime.Time
	Rate float64
}

// HotspotShift rotates the zipf key ranking at an instant: from At
// on, the key at declaration rank r serves rank (r+Shift) mod len —
// the hot key moves mid-run, the signal hot-shard detection and
// (eventually) elastic resharding must chase.
type HotspotShift struct {
	At    vtime.Time
	Shift int
}

// Config parameterises one generator.
type Config struct {
	// Name labels the generator in reports and metric series.
	Name string
	// Mode is the arrival discipline; Workload the op shape.
	Mode     Mode
	Workload Workload
	// Sessions is the closed-loop concurrency (ignored open-loop).
	Sessions int
	// Think is the closed-loop mean think time between an ack and the
	// next submission (sampled uniformly in [Think/2, 3·Think/2]).
	Think vtime.Duration
	// Rate is the open-loop arrival rate in ops/sec until the first
	// ramp step (ignored closed-loop).
	Rate float64
	// Ramp schedules open-loop rate changes, ascending instants.
	Ramp []RampStep
	// Keys is the keyspace, declaration order = zipf rank (first key
	// hottest). Txn workloads transfer between consecutive key pairs.
	Keys []string
	// ZipfSkew is the key-choice exponent; 0 = uniform rotation.
	ZipfSkew float64
	// HotspotShift schedules mid-run rotations of the zipf ranking.
	HotspotShift []HotspotShift
	// Seed derives the generator's local random sources (never the
	// engine's stream).
	Seed int64
	// End closes the submission window, which opens at time zero.
	End vtime.Time
	// MaxOps caps total submissions (0 = DefaultMaxOps), a guard
	// against runaway open-loop schedules.
	MaxOps int
}

// DefaultMaxOps bounds a generator's total submissions when the
// config leaves the cap zero.
const DefaultMaxOps = 1_000_000

// Validate checks the configuration loudly.
func (c Config) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("load: generator needs a name")
	}
	if len(c.Keys) == 0 {
		return fmt.Errorf("load %q: needs at least one key", c.Name)
	}
	if c.Workload == Txn && len(c.Keys) < 2 {
		return fmt.Errorf("load %q: txn workload needs at least two keys", c.Name)
	}
	if c.ZipfSkew < 0 {
		return fmt.Errorf("load %q: negative zipfSkew %g", c.Name, c.ZipfSkew)
	}
	if c.End <= 0 {
		return fmt.Errorf("load %q: empty submission window [0, %s)", c.Name, c.End)
	}
	switch c.Mode {
	case Closed:
		if c.Sessions < 1 {
			return fmt.Errorf("load %q: closed-loop needs at least 1 session (got %d)", c.Name, c.Sessions)
		}
		if c.Think < 0 {
			return fmt.Errorf("load %q: negative think time %s", c.Name, c.Think)
		}
		if c.Rate != 0 {
			return fmt.Errorf("load %q: closed-loop sets arrival rate %g (rate is open-loop only)", c.Name, c.Rate)
		}
		if len(c.Ramp) > 0 {
			return fmt.Errorf("load %q: closed-loop sets a ramp schedule (ramps are open-loop only)", c.Name)
		}
	case Open:
		if c.Rate <= 0 && len(c.Ramp) == 0 {
			return fmt.Errorf("load %q: open-loop needs a positive rate or a ramp schedule", c.Name)
		}
		if c.Rate < 0 {
			return fmt.Errorf("load %q: negative arrival rate %g", c.Name, c.Rate)
		}
		if c.Sessions != 0 {
			return fmt.Errorf("load %q: open-loop sets sessions=%d (sessions are closed-loop only)", c.Name, c.Sessions)
		}
	default:
		return fmt.Errorf("load %q: unknown mode %d", c.Name, c.Mode)
	}
	prev := vtime.Time(-1)
	for i, st := range c.Ramp {
		if st.Rate < 0 {
			return fmt.Errorf("load %q: ramp step %d has negative rate %g", c.Name, i, st.Rate)
		}
		if st.At <= prev {
			return fmt.Errorf("load %q: ramp instants must strictly ascend (step %d at %s)", c.Name, i, st.At)
		}
		prev = st.At
	}
	prev = vtime.Time(-1)
	for i, hs := range c.HotspotShift {
		if hs.At <= prev {
			return fmt.Errorf("load %q: hotspotShift instants must strictly ascend (step %d at %s)", c.Name, i, hs.At)
		}
		prev = hs.At
	}
	if len(c.HotspotShift) > 0 && c.ZipfSkew == 0 {
		return fmt.Errorf("load %q: hotspotShift without zipfSkew moves nothing (set a skew)", c.Name)
	}
	if c.MaxOps < 0 {
		return fmt.Errorf("load %q: negative maxOps %d", c.Name, c.MaxOps)
	}
	if c.Mode == Closed && c.Sessions > c.maxOps() {
		return fmt.Errorf("load %q: %d sessions but at most %d ops (every session submits at least once; raise maxOps)", c.Name, c.Sessions, c.maxOps())
	}
	return nil
}

// maxOps is the cap in force: MaxOps, or DefaultMaxOps when left zero.
func (c Config) maxOps() int {
	if c.MaxOps == 0 {
		return DefaultMaxOps
	}
	return c.MaxOps
}

// Sinks wire a generator into the cluster. The cluster layer supplies
// closures over its clients and scheduler; the generator never
// imports it.
type Sinks struct {
	// SubmitKV submits one keyed write; done fires when it is acked.
	SubmitKV func(key string, cmd int64, done func())
	// Transfer submits one two-key transfer; done fires when the
	// transaction decides (commit or abort).
	Transfer func(from, to string, amount int64, done func())
	// Publish publishes one sample into a topic; done fires when the
	// publish completes (reliable: the replication ack; best-effort:
	// the broadcast's origin delivery — a dropped sample never does).
	Publish func(topic string, value int64, done func())
	// At schedules fn at absolute virtual instant t.
	At func(t vtime.Time, fn func())
	// Now reads the virtual clock (required closed-loop: the think
	// interval starts at the ack instant).
	Now func() vtime.Time
	// Metrics, when non-nil, receives the generator's offered/acked
	// counters for per-interval throughput series.
	Metrics *metrics.Registry
}

// Stats is a generator's account.
type Stats struct {
	// Offered counts submissions handed to the sink; Acked the
	// completions observed (txn: decided, commit or abort).
	Offered int64
	Acked   int64
	// Capped reports the MaxOps guard truncated the schedule.
	Capped bool
}

// Generator drives one configured workload. Build with New, wire and
// lay out with Start; Stats accumulates as the run executes.
type Generator struct {
	cfg   Config
	s     Sinks
	Stats Stats

	mLat *metrics.Hist
	// lat records each completion's submit→ack latency in completion
	// order (requires Sinks.Now; per-generator attribution in reports).
	lat    []vtime.Duration
	maxOps int
}

// New validates the config and builds a generator.
func New(cfg Config) (*Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Generator{cfg: cfg, maxOps: cfg.maxOps()}, nil
}

// Config returns the generator's configuration.
func (g *Generator) Config() Config { return g.cfg }

// shiftAt returns the cumulative rank rotation in force at t.
func (g *Generator) shiftAt(t vtime.Time) int {
	shift := 0
	for _, hs := range g.cfg.HotspotShift {
		if hs.At > t {
			break
		}
		shift = hs.Shift
	}
	return shift
}

// Zipf is the skewed rank draw every zipf-keyed workload shares — the
// generators here and the scenario layer's fixed-interval clients: rank
// i of n carries weight 1/(i+1)^skew, so rank 0 is the hottest.
type Zipf struct {
	weights []float64
	total   float64
}

// NewZipf weighs n ranks by the exponent skew.
func NewZipf(n int, skew float64) Zipf {
	z := Zipf{weights: make([]float64, n)}
	for i := range z.weights {
		z.weights[i] = 1 / math.Pow(float64(i+1), skew)
		z.total += z.weights[i]
	}
	return z
}

// Rank draws one rank by inverse CDF. It consumes exactly one Float64
// from rng, so a caller's stream stays a pure function of its draw
// count.
func (z Zipf) Rank(rng *rand.Rand) int {
	u := rng.Float64() * z.total
	for i, w := range z.weights {
		u -= w
		if u < 0 {
			return i
		}
	}
	return len(z.weights) - 1
}

// keyPicker builds a deterministic key chooser over its own source:
// a Zipf draw when skewed (declaration order = rank), uniform rotation
// otherwise. The rank→key mapping rotates by the hotspot shift in force
// at the submission instant.
func (g *Generator) keyPicker(rng *rand.Rand) func(at vtime.Time) string {
	keys := g.cfg.Keys
	if g.cfg.ZipfSkew == 0 || len(keys) < 2 {
		i := 0
		return func(vtime.Time) string {
			k := keys[i%len(keys)]
			i++
			return k
		}
	}
	z := NewZipf(len(keys), g.cfg.ZipfSkew)
	return func(at vtime.Time) string {
		return keys[(z.Rank(rng)+g.shiftAt(at))%len(keys)]
	}
}

// sessionSeed derives one session's (or the arrival schedule's)
// source from the generator seed — the same large-prime mixing the
// scenario layer uses for client pickers.
func (g *Generator) sessionSeed(i int) int64 {
	return g.cfg.Seed*1000003 + int64(i)*7919 + 1
}

// Start wires the sinks and lays out the workload: closed-loop
// sessions schedule their first submissions; the open-loop arrival
// schedule is computed in full (build time — before the engine runs).
func (g *Generator) Start(s Sinks) {
	if s.At == nil {
		panic("load: Sinks.At is required")
	}
	switch g.cfg.Workload {
	case KV:
		if s.SubmitKV == nil {
			panic("load: kv workload needs Sinks.SubmitKV")
		}
	case Txn:
		if s.Transfer == nil {
			panic("load: txn workload needs Sinks.Transfer")
		}
	case Pub:
		if s.Publish == nil {
			panic("load: pubsub workload needs Sinks.Publish")
		}
	}
	if g.cfg.Mode == Closed && s.Now == nil {
		panic("load: closed-loop needs Sinks.Now")
	}
	g.s = s
	s.Metrics.CounterFunc("load."+g.cfg.Name+".offered", func() int64 { return g.Stats.Offered })
	s.Metrics.CounterFunc("load."+g.cfg.Name+".acked", func() int64 { return g.Stats.Acked })
	g.mLat = s.Metrics.Hist("load." + g.cfg.Name + ".latency")
	if g.cfg.Mode == Open {
		g.layoutOpen()
		return
	}
	for i := 0; i < g.cfg.Sessions; i++ {
		g.startSession(i)
	}
}

// submit issues one op at the current instant, invoking done when the
// op completes. Returns false when the window closed or the cap hit.
func (g *Generator) submit(at vtime.Time, pick func(vtime.Time) string, done func()) bool {
	if at >= g.cfg.End {
		return false
	}
	if g.Stats.Offered >= int64(g.maxOps) {
		g.Stats.Capped = true
		return false
	}
	g.Stats.Offered++
	onDone := func() {
		g.Stats.Acked++
		if g.s.Now != nil {
			// at is the submission instant: the callback fires inside the
			// engine, so Now minus at is the op's true completion latency.
			l := g.s.Now().Sub(at)
			g.lat = append(g.lat, l)
			g.mLat.ObserveD(l)
		}
		if done != nil {
			done()
		}
	}
	switch g.cfg.Workload {
	case Txn:
		from := pick(at)
		to := g.otherKey(from)
		g.s.Transfer(from, to, 1, onDone)
	case Pub:
		g.s.Publish(pick(at), g.Stats.Offered, onDone)
	default:
		g.s.SubmitKV(pick(at), 1, onDone)
	}
	return true
}

// otherKey picks a second, distinct key for a transfer: the next key
// in declaration order (deterministic, no extra draw).
func (g *Generator) otherKey(from string) string {
	keys := g.cfg.Keys
	for i, k := range keys {
		if k == from {
			return keys[(i+1)%len(keys)]
		}
	}
	return keys[0]
}

// startSession lays out one closed-loop session: a staggered first
// submission, then a submit→ack→think loop riding the ack callbacks.
// All draws come from the session's own source, consumed in the
// session's causal order — deterministic however sessions interleave.
func (g *Generator) startSession(i int) {
	rng := rand.New(rand.NewSource(g.sessionSeed(i)))
	pick := g.keyPicker(rng)
	// Stagger session starts uniformly across one think interval (or
	// 1ms when thinkless) so thousands of sessions do not arrive as
	// one spike at time zero.
	window := g.cfg.Think
	if window <= 0 {
		window = vtime.Millisecond
	}
	first := vtime.Time(rng.Int63n(int64(window) + 1))
	var fireAt func(at vtime.Time)
	fireAt = func(at vtime.Time) {
		g.submit(at, pick, func() {
			// The ack callback runs at the ack instant inside the
			// engine: think from here, then go again.
			think := vtime.Duration(0)
			if g.cfg.Think > 0 {
				think = g.cfg.Think/2 + vtime.Duration(rng.Int63n(int64(g.cfg.Think)+1))
			}
			next := g.s.Now().Add(think)
			if next >= g.cfg.End {
				return // window closed: session retires
			}
			g.s.At(next, func() { fireAt(next) })
		})
	}
	g.s.At(first, func() { fireAt(first) })
}

// layoutOpen precomputes the Poisson arrival schedule: exponential
// inter-arrivals at the piecewise rate the ramp declares, every draw
// from the schedule's own source at build time.
func (g *Generator) layoutOpen() {
	rng := rand.New(rand.NewSource(g.sessionSeed(-1)))
	pick := g.keyPicker(rng)
	t := vtime.Time(0)
	n := 0
	for {
		r := g.rateAt(t)
		if r <= 0 {
			// A zero-rate plateau: jump to the next ramp step, if any.
			next, ok := g.nextRampAfter(t)
			if !ok {
				break
			}
			t = next
			continue
		}
		// Exponential inter-arrival at rate r ops/sec.
		gap := vtime.Duration(rng.ExpFloat64() / r * float64(vtime.Second))
		if gap < 1 {
			gap = 1
		}
		t = t.Add(gap)
		if t >= g.cfg.End {
			break
		}
		if n >= g.maxOps {
			g.Stats.Capped = true
			break
		}
		n++
		at := t
		g.s.At(at, func() { g.submit(at, pick, nil) })
	}
}

// rateAt returns the arrival rate in force at t.
func (g *Generator) rateAt(t vtime.Time) float64 {
	r := g.cfg.Rate
	for _, st := range g.cfg.Ramp {
		if st.At > t {
			break
		}
		r = st.Rate
	}
	return r
}

// LatencyStats is a generator's completion-latency distribution —
// the per-generator attribution report rows carry (the trace plane's
// latency rows aggregate by op class and shard, so coexisting
// generators of the same class would blur there).
type LatencyStats struct {
	Count                     int
	P50, P99, P999, Max, Mean vtime.Duration
}

// LatencyStats distills the recorded completion latencies. Zero when
// nothing completed (or the sinks carried no clock).
func (g *Generator) LatencyStats() LatencyStats {
	n := len(g.lat)
	if n == 0 {
		return LatencyStats{}
	}
	sorted := append([]vtime.Duration(nil), g.lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum vtime.Duration
	for _, l := range sorted {
		sum += l
	}
	pct := func(q float64) vtime.Duration {
		i := int(q * float64(n))
		if i >= n {
			i = n - 1
		}
		return sorted[i]
	}
	return LatencyStats{
		Count: n,
		P50:   pct(0.50),
		P99:   pct(0.99),
		P999:  pct(0.999),
		Max:   sorted[n-1],
		Mean:  sum / vtime.Duration(n),
	}
}

// nextRampAfter returns the first ramp instant strictly after t.
func (g *Generator) nextRampAfter(t vtime.Time) (vtime.Time, bool) {
	for _, st := range g.cfg.Ramp {
		if st.At > t {
			return st.At, true
		}
	}
	return 0, false
}
