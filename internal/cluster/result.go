package cluster

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"strings"

	"hades/internal/dispatcher"
	"hades/internal/membership"
	"hades/internal/metrics"
	"hades/internal/monitor"
	"hades/internal/netsim"
	"hades/internal/pubsub"
	"hades/internal/replication"
	"hades/internal/session"
	"hades/internal/shard"
	"hades/internal/trace"
	"hades/internal/txn"
	"hades/internal/vtime"
)

// Result is the structured outcome of a run: dispatcher-level counters
// (activations, completions, misses, admission rejections), per-task
// response-time statistics, network counters, membership group view
// histories and recorded violations.
type Result struct {
	Until      vtime.Time
	Stats      dispatcher.Stats
	Tasks      []TaskResult
	Net        netsim.Stats // zero when the cluster has no network
	Groups     []GroupResult
	Shards     []ShardResult
	Clients    []ClientResult
	TxnClients []TxnClientResult
	// Latency aggregates the causal traces: one row per (op class,
	// shard) plus an all-shards row (Shard = -1) per class, with
	// percentiles and the mean per-layer breakdown. Empty when tracing
	// is disabled.
	Latency    []LatencyResult
	Violations []monitor.Event
	// Loads records each attached load generator's account.
	Loads []LoadResult
	// PubSub records each declared pub/sub topic's delivery account,
	// declaration order (empty when no set created a plane), and
	// Subscribers each subscriber's, topic then registration order.
	PubSub      []pubsub.TopicStats
	Subscribers []SubscriberResult
	// Traces counts the causal traces the tracer started, finished,
	// retained and saw violate a deadline, at its sample rate (zero
	// when tracing is disabled).
	Traces TraceResult
	// Faults is the run's fault timeline: the monitor events recording
	// injected failures, detections, failovers, partitions, merges and
	// SLO breach boundaries, in record order — complete whatever the
	// log's bound did to the event window.
	Faults []monitor.Event
	// Metrics is the virtual-time metrics timeline (nil when the plane
	// is disabled): every series' retained points, the SLO rule records
	// with their breach windows, and the key-hotness sketch.
	Metrics *metrics.Export
	// LogDropped counts monitor-log events evicted by the log's bound
	// (ring churn or head-mode overflow) — a non-zero value means the
	// retained event window is incomplete.
	LogDropped int
}

// LatencyResult is one op class's latency record on one shard (or all
// shards, Shard = -1): end-to-end percentiles over every finished
// trace of the scope, plus the mean time spent per layer. The layer
// breakdown partitions the end-to-end time exactly (the trace plane
// attributes every instant of a trace to its highest-priority active
// layer), so the layer means sum to Mean up to integer rounding. A
// declared row: the tracer keeps layer sums, this holds their means.
type LatencyResult struct {
	Class string
	Shard int // -1 aggregates all shards
	Count int
	P50   vtime.Duration
	P99   vtime.Duration
	P999  vtime.Duration
	Max   vtime.Duration
	Mean  vtime.Duration
	// Mean per-layer dwell: client queueing, batcher wait, wire round
	// trips, replication rounds, lock waits, and everything else.
	Queued      vtime.Duration
	Batched     vtime.Duration
	Wire        vtime.Duration
	Replicating vtime.Duration
	Locked      vtime.Duration
	Other       vtime.Duration
}

// TraceResult is the tracer's account: what Tracer.Counts returns and
// the sample rate it ran at.
type TraceResult struct {
	Started, Finished, Retained, Violating int
	Rate                                   float64
}

// SubscriberResult is one pub/sub subscriber's delivery record.
type SubscriberResult struct {
	Topic string
	Node  int
	// Delivered counts the samples handed to the subscriber and
	// Suppressed the redundant copies its dedup collapsed.
	Delivered  int
	Suppressed int
	// JoinAt is the late joiner's join instant (zero = from start).
	JoinAt vtime.Time
}

// ShardResult is one shard group's routing and service record (its
// membership/replication record appears under Groups as usual).
type ShardResult struct {
	Name    string
	Nodes   []int
	Primary int
	Style   replication.Style
	// GroupStats is the group's own request-path account (requests,
	// OK responses, redirects, stale-view rejections).
	shard.GroupStats
	// Duplicates counts retried requests answered from the replicated
	// dedup cache; Applied is the primary state machine's apply counter.
	Duplicates int
	Applied    int64
	// Txn aggregates the shard's transaction-layer roles (zero when the
	// set's transaction plane was never created).
	Txn TxnShardResult
}

// TxnShardResult is one shard's transaction coordinator/participant
// record. It stays a declared row: it draws from txn.CoordStats and
// txn.PartStats, whose Commits/Aborts names clash, so embedding both
// would make Txn.Commits ambiguous.
type TxnShardResult struct {
	// Begins, Commits, Aborts and DeadlineAborts count this shard's
	// coordinator decisions (transactions hashed onto it); Queries the
	// decision-resolution requests it served.
	Begins         int
	Commits        int
	Aborts         int
	DeadlineAborts int
	Queries        int
	// Prepares, LockWaits, VotesYes, VotesNo, PartCommits, PartAborts
	// and DeadlineReleases count this shard's participant activity
	// (transactions touching its keys); LocksHeld is the keys it still
	// holds locked.
	Prepares         int
	LockWaits        int
	VotesYes         int
	VotesNo          int
	PartCommits      int
	PartAborts       int
	DeadlineReleases int
	LocksHeld        int
	// GroupCommits counts decision-log rounds this coordinator
	// submitted; with group commit on it is smaller than
	// Commits+Aborts and MaxDecisionBatch reports the largest batch of
	// COMMIT/ABORT records carried in one replicated round.
	GroupCommits     int
	MaxDecisionBatch int
}

// ClientResult is one shard client's request-layer record: the client's
// own counters and its batcher's, as the planes keep them.
type ClientResult struct {
	Node   int
	Policy shard.Policy
	shard.ClientStats
	session.BatchStats
	// Depth renders the deepest pipeline reached per shard lane
	// ("s0:2 s1:1"; "-" when nothing was in flight).
	Depth string
}

// TxnClientResult is one transaction client's record.
type TxnClientResult struct {
	Node int
	txn.ClientStats
}

// GroupResult is one membership group's runtime record: the agreed
// view history, view-change latency statistics (each install is also
// recorded in the monitor log as a ViewInstall event) and the attached
// replica groups' failover counters. A declared row: every field is an
// aggregate over the service's installs, merges and replica groups.
type GroupResult struct {
	Name string
	// Views is the agreed, totally ordered view sequence.
	Views []membership.View
	// Installs counts per-node view installations; Joins counts
	// completed state transfers.
	Installs int
	Joins    int
	// AvgViewLatency and MaxViewLatency aggregate the
	// suspicion-to-install latencies of non-initial installs; Bound is
	// the service's provable per-change bound.
	AvgViewLatency vtime.Duration
	MaxViewLatency vtime.Duration
	Bound          vtime.Duration
	// Quorum is the strict-majority head count of the final view —
	// what a side must muster to install the next view under the
	// primary-partition rule.
	Quorum int
	// BlockedTime sums the time members spent excluded from the agreed
	// view while alive (partitioned minority sides); NoQuorumTime is
	// the span with changes pending but no majority side anywhere.
	BlockedTime  vtime.Duration
	NoQuorumTime vtime.Duration
	// Merges counts partition merge views (blocked members re-admitted)
	// and MergeLatency the worst heal-to-merge-install latency.
	Merges       int
	MergeLatency vtime.Duration
	// Flushed counts messages discarded by virtual-synchronous
	// flushing at view boundaries (broadcast + replication traffic).
	Flushed int
	// Failovers and LostWork aggregate the attached replica groups.
	Failovers int
	LostWork  int64
}

// TaskResult is one task's runtime statistics.
type TaskResult struct {
	Name        string
	Activations int
	Completions int
	Misses      int
	AvgResponse vtime.Duration
	MaxResponse vtime.Duration
}

// ResultNow builds a Result at the current instant without advancing.
func (c *Cluster) ResultNow() Result {
	c.build()
	r := Result{
		Until: c.eng.Now(), Stats: c.disp.Stats(), Violations: c.log.Violations(),
		Metrics: c.metrics.Export(), LogDropped: c.log.Dropped(),
	}
	if c.net != nil {
		r.Net = c.net.Stats()
	}
	for _, a := range c.apps {
		for _, tr := range a.app.Tasks() {
			r.Tasks = append(r.Tasks, TaskResult{
				Name:        tr.Task.Name,
				Activations: tr.Activations,
				Completions: tr.Completions,
				Misses:      tr.Misses,
				AvgResponse: tr.AvgResponse(),
				MaxResponse: tr.MaxResponse,
			})
		}
	}
	for _, g := range c.groups {
		r.Groups = append(r.Groups, g.result())
	}
	for _, set := range c.shardSets {
		for _, sg := range set.shards {
			rep := sg.Replication()
			sr := ShardResult{
				Name:       sg.Name(),
				Nodes:      sg.Nodes(),
				Primary:    rep.Primary(),
				Style:      rep.Style(),
				GroupStats: sg.Stats,
				Duplicates: rep.Duplicates,
				Applied:    rep.Machine(rep.Primary()).Applied,
			}
			if set.txn != nil {
				co := set.txn.Coordinators()[sg.Index()]
				pa := set.txn.Participants()[sg.Index()]
				sr.Txn = TxnShardResult{
					Begins:           co.Stats.Begins,
					Commits:          co.Stats.Commits,
					Aborts:           co.Stats.Aborts,
					DeadlineAborts:   co.Stats.DeadlineAborts,
					Queries:          co.Stats.Queries,
					Prepares:         pa.Stats.Prepares,
					LockWaits:        pa.Stats.LockWaits,
					VotesYes:         pa.Stats.VotesYes,
					VotesNo:          pa.Stats.VotesNo,
					PartCommits:      pa.Stats.Commits,
					PartAborts:       pa.Stats.Aborts,
					DeadlineReleases: pa.Stats.DeadlineReleases,
					LocksHeld:        pa.LockedKeys(),
					GroupCommits:     co.GroupCommits,
					MaxDecisionBatch: co.MaxDecisionBatch,
				}
			}
			r.Shards = append(r.Shards, sr)
		}
		if set.txn != nil {
			for _, tc := range set.txn.Clients() {
				r.TxnClients = append(r.TxnClients, TxnClientResult{Node: tc.Node(), ClientStats: tc.Stats})
			}
		}
		if p := set.pubsub; p != nil {
			r.PubSub = append(r.PubSub, p.Stats()...)
			for _, t := range p.Topics() {
				for _, sub := range p.Subscribers(t.Name()) {
					r.Subscribers = append(r.Subscribers, SubscriberResult{
						Topic: t.Name(), Node: sub.Node(),
						Delivered: sub.Delivered(), Suppressed: sub.Suppressed(), JoinAt: sub.JoinTime(),
					})
				}
			}
		}
		for _, cl := range set.clients {
			bs := cl.BatchStats()
			bs.SizeHist = maps.Clone(bs.SizeHist) // a snapshot, not the live batcher's map
			r.Clients = append(r.Clients, ClientResult{
				Node: cl.Node(), Policy: cl.Params().Policy, ClientStats: cl.Stats, BatchStats: bs,
				Depth: depthString(cl.MaxInflight()),
			})
		}
	}
	r.Traces.Started, r.Traces.Finished, r.Traces.Retained, r.Traces.Violating = c.tracer.Counts()
	r.Traces.Rate = c.tracer.Rate()
	for _, st := range c.tracer.Stats() {
		r.Latency = append(r.Latency, latencyFromScope(st))
	}
	for _, g := range c.loads {
		cfg := g.Config()
		r.Loads = append(r.Loads, LoadResult{
			Name:     cfg.Name,
			Mode:     cfg.Mode.String(),
			Workload: cfg.Workload.String(),
			Sessions: cfg.Sessions,
			Offered:  g.Stats.Offered,
			Acked:    g.Stats.Acked,
			Capped:   g.Stats.Capped,
			Latency:  g.LatencyStats(),
		})
	}
	r.Faults = c.log.Faults()
	return r
}

// latencyFromScope converts one tracer scope into the Result row,
// dividing the layer sums into means.
func latencyFromScope(st trace.ScopeStats) LatencyResult {
	lr := LatencyResult{
		Class: st.Class,
		Shard: st.Shard,
		Count: st.Count,
		P50:   st.P50,
		P99:   st.P99,
		P999:  st.P999,
		Max:   st.Max,
		Mean:  st.Mean(),
	}
	if st.Count > 0 {
		n := vtime.Duration(st.Count)
		lr.Queued = st.Layers.Queue / n
		lr.Batched = st.Layers.Batch / n
		lr.Wire = st.Layers.Wire / n
		lr.Replicating = st.Layers.Replicate / n
		lr.Locked = st.Layers.Lock / n
		lr.Other = st.Layers.Other / n
	}
	return lr
}

// depthString renders a per-lane maximum-in-flight map in shard-index
// order (lanes are named "s<idx>", so shorter-then-lexicographic is
// numeric).
func depthString(m map[string]int) string {
	if len(m) == 0 {
		return "-"
	}
	lanes := slices.SortedFunc(maps.Keys(m), func(a, b string) int {
		return cmp.Or(cmp.Compare(len(a), len(b)), cmp.Compare(a, b))
	})
	var sb strings.Builder
	for i, lane := range lanes {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%s:%d", lane, m[lane])
	}
	return sb.String()
}

// result snapshots one group's membership and replication counters.
func (g *Group) result() GroupResult {
	svc := g.svc
	gr := GroupResult{
		Name:         svc.Name(),
		Views:        svc.AgreedViews(),
		Joins:        len(svc.Transfers),
		Bound:        svc.Bound(),
		Quorum:       svc.Quorum(),
		BlockedTime:  svc.TotalBlockedTime(),
		NoQuorumTime: svc.NoQuorumTime(),
		Merges:       len(svc.Merges),
		Flushed:      svc.FlushedMessages(),
	}
	for _, mg := range svc.Merges {
		if mg.Latency > gr.MergeLatency {
			gr.MergeLatency = mg.Latency
		}
	}
	var sum vtime.Duration
	measured := 0
	for _, in := range svc.Installs {
		gr.Installs++
		if in.View.ID == 1 {
			continue // initial view: no change latency
		}
		measured++
		sum += in.Latency
		if in.Latency > gr.MaxViewLatency {
			gr.MaxViewLatency = in.Latency
		}
	}
	if measured > 0 {
		gr.AvgViewLatency = sum / vtime.Duration(measured)
	}
	for _, rep := range g.rep {
		gr.Failovers += len(rep.Failovers)
		gr.LostWork += rep.LostWork
		gr.Flushed += rep.Flushed
	}
	return gr
}

// find returns the first row satisfying match.
func find[T any](rows []T, match func(T) bool) (T, bool) {
	if i := slices.IndexFunc(rows, match); i >= 0 {
		return rows[i], true
	}
	var zero T
	return zero, false
}

// Task returns the named task's statistics.
func (r Result) Task(name string) (TaskResult, bool) {
	return find(r.Tasks, func(t TaskResult) bool { return t.Name == name })
}

// Shard returns the named shard group's record.
func (r Result) Shard(name string) (ShardResult, bool) {
	return find(r.Shards, func(s ShardResult) bool { return s.Name == name })
}

// Group returns the named membership group's record.
func (r Result) Group(name string) (GroupResult, bool) {
	return find(r.Groups, func(g GroupResult) bool { return g.Name == name })
}

// String renders the result as a compact table.
func (r Result) String() string {
	out := fmt.Sprintf("t=%s activations=%d completions=%d misses=%d rejections=%d violations=%d\n",
		r.Until, r.Stats.Activations, r.Stats.Completions, r.Stats.DeadlineMisses,
		r.Stats.Rejections, len(r.Violations))
	if r.Net.Sent > 0 {
		out += fmt.Sprintf("  net: sent=%d delivered=%d dropped=%d late=%d maxDelay=%s\n",
			r.Net.Sent, r.Net.Delivered, r.Net.Dropped, r.Net.Late, r.Net.MaxDelay)
	}
	if r.LogDropped > 0 {
		out += fmt.Sprintf("  log: %d events dropped (log limit)\n", r.LogDropped)
	}
	for _, t := range r.Tasks {
		out += fmt.Sprintf("  %-16s act=%-5d done=%-5d miss=%-4d avg=%-12s max=%s\n",
			t.Name, t.Activations, t.Completions, t.Misses, t.AvgResponse, t.MaxResponse)
	}
	for _, g := range r.Groups {
		views := ""
		for i, v := range g.Views {
			if i > 0 {
				views += " → "
			}
			views += v.String()
		}
		out += fmt.Sprintf("  group %-10s %s\n", g.Name, views)
		out += fmt.Sprintf("    changes=%d joins=%d installs=%d avgLat=%s maxLat=%s (bound %s) failovers=%d lost=%d\n",
			len(g.Views)-1, g.Joins, g.Installs, g.AvgViewLatency, g.MaxViewLatency, g.Bound, g.Failovers, g.LostWork)
		if g.BlockedTime > 0 || g.NoQuorumTime > 0 || g.Merges > 0 || g.Flushed > 0 {
			out += fmt.Sprintf("    quorum=%d blocked=%s noQuorum=%s merges=%d mergeLat=%s flushed=%d\n",
				g.Quorum, g.BlockedTime, g.NoQuorumTime, g.Merges, g.MergeLatency, g.Flushed)
		}
	}
	for _, s := range r.Shards {
		out += fmt.Sprintf("  shard %-10s nodes=%v primary=n%d style=%s req=%-5d served=%-5d redirect=%-4d blocked=%-4d dup=%-4d applied=%d\n",
			s.Name, s.Nodes, s.Primary, s.Style, s.Requests, s.Served, s.Redirects, s.Blocked, s.Duplicates, s.Applied)
		if t := s.Txn; t.Begins > 0 || t.Prepares > 0 {
			out += fmt.Sprintf("    txn: coord begins=%d commits=%d aborts=%d (deadline=%d) queries=%d\n",
				t.Begins, t.Commits, t.Aborts, t.DeadlineAborts, t.Queries)
			out += fmt.Sprintf("    txn: part prepares=%d lockWaits=%d votes=%d/%d commits=%d aborts=%d deadlineReleases=%d locksHeld=%d\n",
				t.Prepares, t.LockWaits, t.VotesYes, t.VotesNo, t.PartCommits, t.PartAborts, t.DeadlineReleases, t.LocksHeld)
			if t.GroupCommits > 0 {
				out += fmt.Sprintf("    txn: groupCommits=%d maxDecisionBatch=%d\n", t.GroupCommits, t.MaxDecisionBatch)
			}
		}
	}
	for _, c := range r.Clients {
		out += fmt.Sprintf("  client n%-3d %-9s sub=%-5d ack=%-5d redirect=%-4d retry=%-4d queued=%-4d resub=%-4d failed=%-4d blocked=%-4d avgLat=%-12s maxLat=%s\n",
			c.Node, c.Policy, c.Submitted, c.Acked, c.Redirects, c.Retries, c.Queued, c.Resubmitted, c.FailedFast, c.Blocked, c.AvgLatency(), c.MaxLatency)
		if c.Batches > 0 {
			out += fmt.Sprintf("    batch: flushed=%d ops=%d full=%d timer=%d maxOps=%d stalls=%d hist=[%s] depth=[%s]\n",
				c.Batches, c.Ops, c.FullFlushes, c.TimerFlushes, c.MaxBatchOps, c.Stalls, c.HistString(), c.Depth)
		}
	}
	for _, t := range r.TxnClients {
		out += fmt.Sprintf("  txn    n%-3d begun=%-4d committed=%-4d aborted=%-4d deadline=%-4d retry=%-4d queued=%-4d resub=%-4d avgLat=%-12s maxLat=%s\n",
			t.Node, t.Begun, t.Committed, t.Aborted, t.DeadlineAborts, t.Retries, t.Queued, t.Resubmitted, t.AvgLatency(), t.MaxLatency)
	}
	for _, l := range r.Loads {
		capped := ""
		if l.Capped {
			capped = " (capped)"
		}
		out += fmt.Sprintf("  load %-12s %s/%s sessions=%-5d offered=%-6d acked=%-6d%s\n",
			l.Name, l.Mode, l.Workload, l.Sessions, l.Offered, l.Acked, capped)
		if l.Latency.Count > 0 {
			out += fmt.Sprintf("    lat: p50=%-10s p99=%-10s p999=%-10s max=%-10s mean=%s\n",
				l.Latency.P50, l.Latency.P99, l.Latency.P999, l.Latency.Max, l.Latency.Mean)
		}
	}
	for _, t := range r.PubSub {
		out += fmt.Sprintf("  pubsub %s\n", t)
	}
	for _, s := range r.Subscribers {
		late := ""
		if s.JoinAt > 0 {
			late = fmt.Sprintf(" joinAt=%s", s.JoinAt)
		}
		out += fmt.Sprintf("  sub n%-3d %-12s delivered=%-5d suppressed=%d%s\n",
			s.Node, s.Topic, s.Delivered, s.Suppressed, late)
	}
	if t := r.Traces; t.Started > 0 {
		out += fmt.Sprintf("  traces: started=%d finished=%d retained=%d violating=%d rate=%g\n",
			t.Started, t.Finished, t.Retained, t.Violating, t.Rate)
	}
	for _, l := range r.Latency {
		shard := fmt.Sprintf("s%d", l.Shard)
		if l.Shard < 0 {
			shard = "all"
		}
		out += fmt.Sprintf("  lat %-11s %-4s n=%-5d p50=%-10s p99=%-10s p999=%-10s max=%-10s mean=%-10s | queue=%s batch=%s wire=%s repl=%s lock=%s other=%s\n",
			l.Class, shard, l.Count, l.P50, l.P99, l.P999, l.Max, l.Mean,
			l.Queued, l.Batched, l.Wire, l.Replicating, l.Locked, l.Other)
	}
	if m := r.Metrics; m != nil && m.Scrapes > 0 {
		out += fmt.Sprintf("  metrics: %d series, %d scrapes every %s\n",
			len(m.Series), m.Scrapes, vtime.Duration(m.IntervalNs))
		if len(m.TopKeys) > 0 {
			hot := m.TopKeys[0]
			out += fmt.Sprintf("    hottest key %q (shard %d, ~%d touches)\n", hot.Key, hot.Shard, hot.Count)
		}
		for _, rd := range m.SLO {
			out += fmt.Sprintf("    slo %-12s %-32s evals=%-4d breaches=%d\n",
				rd.Name, rd.Expr, rd.Evals, len(rd.Breaches))
		}
	}
	return out
}
