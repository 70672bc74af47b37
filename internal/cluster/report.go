package cluster

import (
	"slices"

	"hades/internal/report"
)

// Report distills the run into its persisted per-run report: offered
// vs. achieved throughput (with the per-interval series when the
// metrics plane scraped the load counters), latency percentiles per
// op class and shard, per-shard service breakdowns, the load
// generators' accounts, SLO outcomes and the fault timeline. Pure
// observation over data the run already recorded — building a report
// never touches simulation state. Name labels the run; seed is echoed
// into the document so a baseline names its reproduction recipe.
func (r Result) Report(name string, seed int64) *report.Report {
	doc := &report.Report{
		Name:      name,
		Seed:      seed,
		HorizonNs: int64(r.Until),
	}

	// Throughput: the generators' account when load is attached, the
	// clients' otherwise (scenario-scheduled workloads still report).
	if len(r.Loads) > 0 {
		for _, l := range r.Loads {
			doc.Throughput.Offered += l.Offered
			doc.Throughput.Achieved += l.Acked
			doc.Loads = append(doc.Loads, report.LoadStat{
				Name: l.Name, Mode: l.Mode, Workload: l.Workload,
				Sessions: l.Sessions, Offered: l.Offered, Acked: l.Acked,
				P50Ns:  int64(l.Latency.P50),
				P99Ns:  int64(l.Latency.P99),
				P999Ns: int64(l.Latency.P999),
				MaxNs:  int64(l.Latency.Max),
				MeanNs: int64(l.Latency.Mean),
			})
		}
	} else {
		for _, c := range r.Clients {
			doc.Throughput.Offered += int64(c.Submitted)
			doc.Throughput.Achieved += int64(c.Acked)
		}
		for _, t := range r.TxnClients {
			doc.Throughput.Offered += int64(t.Begun)
			doc.Throughput.Achieved += int64(t.Committed + t.Aborted)
		}
	}
	doc.Throughput.Series = throughputSeries(r)

	for _, l := range r.Latency {
		doc.Latency = append(doc.Latency, report.LatencyStat{
			Class:  l.Class,
			Shard:  l.Shard,
			Count:  int64(l.Count),
			P50Ns:  int64(l.P50),
			P99Ns:  int64(l.P99),
			P999Ns: int64(l.P999),
			MaxNs:  int64(l.Max),
			MeanNs: int64(l.Mean),
		})
	}
	for _, s := range r.Shards {
		doc.Shards = append(doc.Shards, report.ShardStat{
			Name: s.Name, Requests: s.Requests, Served: s.Served,
			Redirects: s.Redirects, Blocked: s.Blocked,
			Duplicates: s.Duplicates, Applied: s.Applied,
		})
	}
	if r.Metrics != nil {
		for _, rule := range r.Metrics.SLO {
			o := report.SLOOutcome{Name: rule.Name, Expr: rule.Expr, Evals: rule.Evals}
			for _, b := range rule.Breaches {
				o.Breaches = append(o.Breaches, report.BreachWindow{
					OnsetNs: b.Onset, ClearNs: b.Clear,
					Intervals: b.Intervals, Worst: b.Worst,
				})
			}
			doc.SLO = append(doc.SLO, o)
		}
	}
	for _, ev := range r.Faults {
		doc.Faults = append(doc.Faults, report.FaultEvent{
			AtNs: int64(ev.At), Kind: ev.Kind.String(),
			Subject: ev.Subject, Detail: ev.Detail,
		})
	}
	doc.Finalize()
	return doc
}

// throughputSeries merges every load generator's scraped
// offered/acked counters into one per-interval timeline. Empty when
// no generator is attached or the metrics plane is off.
func throughputSeries(r Result) []report.ThroughputPoint {
	if r.Metrics == nil || len(r.Loads) == 0 {
		return nil
	}
	type cell struct{ offered, acked int64 }
	byT := map[int64]*cell{}
	order := []int64{}
	add := func(name string, offered bool) {
		for _, s := range r.Metrics.Series {
			if s.Name != name {
				continue
			}
			for _, p := range s.Points {
				c := byT[p.T]
				if c == nil {
					c = &cell{}
					byT[p.T] = c
					order = append(order, p.T)
				}
				if offered {
					c.offered += p.V
				} else {
					c.acked += p.V
				}
			}
		}
	}
	for _, l := range r.Loads {
		add("load."+l.Name+".offered", true)
		add("load."+l.Name+".acked", false)
	}
	// Scrape instants arrive in chronological order per series and a
	// second generator mostly revisits existing instants; sorting covers
	// partial windows (a ring that evicted one series' early points).
	slices.Sort(order)
	out := make([]report.ThroughputPoint, 0, len(order))
	for _, t := range order {
		c := byT[t]
		out = append(out, report.ThroughputPoint{T: t, Offered: c.offered, Achieved: c.acked})
	}
	return out
}

// ReportNow builds the report at the current instant: ResultNow
// distilled with the cluster's own seed.
func (c *Cluster) ReportNow(name string) *report.Report {
	return c.ResultNow().Report(name, c.cfg.Seed)
}
