// Package report is the per-run performance record of the HADES
// reproduction: a persisted JSON document distilling one run —
// offered vs. achieved throughput, latency percentiles per op class
// and shard, per-shard service counters, SLO outcomes and the fault
// timeline — plus a baseline diff engine with per-stat thresholds.
//
// Every field is sourced from virtual-time data, every slice is
// deterministically ordered and every number is either an integer or
// a float computed from integers, so the same description plus the
// same seed serializes to a byte-identical document: a committed
// baseline diffs trustworthily in CI, on any machine.
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Report is one run's persisted performance record.
type Report struct {
	// Name labels the run (scenario or builtin name).
	Name string `json:"name"`
	// Seed is the run's determinism seed.
	Seed int64 `json:"seed"`
	// HorizonNs is the virtual-time horizon of the run.
	HorizonNs int64 `json:"horizon_ns"`

	// Throughput is the offered-vs-achieved account of the run.
	Throughput Throughput `json:"throughput"`
	// Latency holds one row per (op class, shard) with the all-shards
	// aggregate at shard -1, percentiles in virtual nanoseconds.
	Latency []LatencyStat `json:"latency,omitempty"`
	// Shards is the per-shard service breakdown.
	Shards []ShardStat `json:"shards,omitempty"`
	// Loads records each attached load generator's account.
	Loads []LoadStat `json:"loads,omitempty"`
	// SLO carries the probe outcomes: evals and breach windows.
	SLO []SLOOutcome `json:"slo,omitempty"`
	// Faults is the run's fault timeline: injections, failovers,
	// partitions, merges and SLO breach boundaries, time order.
	Faults []FaultEvent `json:"faults,omitempty"`
}

// Throughput is the run's offered-vs-achieved account. Offered counts
// operations handed to the system (load-generator submissions, or
// client submissions when no generator is attached); Achieved counts
// acknowledged completions. The per-second rates divide by the
// virtual horizon.
type Throughput struct {
	Offered        int64   `json:"offered"`
	Achieved       int64   `json:"achieved"`
	OfferedPerSec  float64 `json:"offered_per_sec"`
	AchievedPerSec float64 `json:"achieved_per_sec"`
	// Series is the per-scrape-interval offered/achieved timeline
	// (present when the metrics plane scraped the load counters).
	Series []ThroughputPoint `json:"series,omitempty"`
}

// ThroughputPoint is one scrape interval's offered/achieved delta.
type ThroughputPoint struct {
	T        int64 `json:"t"`
	Offered  int64 `json:"offered"`
	Achieved int64 `json:"achieved"`
}

// LatencyStat is one op class's latency row on one shard (-1 = all
// shards), sourced from the causal-trace histograms.
type LatencyStat struct {
	Class  string `json:"class"`
	Shard  int    `json:"shard"`
	Count  int64  `json:"count"`
	P50Ns  int64  `json:"p50_ns"`
	P99Ns  int64  `json:"p99_ns"`
	P999Ns int64  `json:"p999_ns"`
	MaxNs  int64  `json:"max_ns"`
	MeanNs int64  `json:"mean_ns"`
}

// key names the row for diffing ("class/s0", "class/all").
func (l LatencyStat) key() string {
	if l.Shard < 0 {
		return l.Class + "/all"
	}
	return fmt.Sprintf("%s/s%d", l.Class, l.Shard)
}

// ShardStat is one shard group's service record.
type ShardStat struct {
	Name       string `json:"name"`
	Requests   int    `json:"requests"`
	Served     int    `json:"served"`
	Redirects  int    `json:"redirects,omitempty"`
	Blocked    int    `json:"blocked,omitempty"`
	Duplicates int    `json:"duplicates,omitempty"`
	Applied    int64  `json:"applied"`
}

// LoadStat is one attached load generator's account, carrying the
// generator's own completion-latency distribution — per-generator
// attribution, where the Latency rows aggregate by op class and shard
// (coexisting pub/sub, kv and txn generators separate here).
type LoadStat struct {
	Name     string `json:"name"`
	Mode     string `json:"mode"`     // "closed" | "open"
	Workload string `json:"workload"` // "kv" | "txn" | "pubsub"
	Sessions int    `json:"sessions,omitempty"`
	Offered  int64  `json:"offered"`
	Acked    int64  `json:"acked"`
	// Latency percentiles over this generator's completions, virtual
	// nanoseconds; all zero when nothing completed.
	P50Ns  int64 `json:"p50_ns,omitempty"`
	P99Ns  int64 `json:"p99_ns,omitempty"`
	P999Ns int64 `json:"p999_ns,omitempty"`
	MaxNs  int64 `json:"max_ns,omitempty"`
	MeanNs int64 `json:"mean_ns,omitempty"`
}

// SLOOutcome is one probe's verdict.
type SLOOutcome struct {
	Name     string         `json:"name"`
	Expr     string         `json:"expr"`
	Evals    int            `json:"evals"`
	Breaches []BreachWindow `json:"breaches,omitempty"`
}

// BreachWindow is one SLO violation window. ClearNs is zero when the
// breach was still open at run end.
type BreachWindow struct {
	OnsetNs   int64   `json:"onset_ns"`
	ClearNs   int64   `json:"clear_ns,omitempty"`
	Intervals int     `json:"intervals"`
	Worst     float64 `json:"worst"`
}

// FaultEvent is one fault-timeline entry.
type FaultEvent struct {
	AtNs    int64  `json:"at_ns"`
	Kind    string `json:"kind"`
	Subject string `json:"subject,omitempty"`
	Detail  string `json:"detail,omitempty"`
}

// rate divides a count by a nanosecond horizon into ops/sec, NaN-free.
func rate(count, horizonNs int64) float64 {
	if horizonNs <= 0 {
		return 0
	}
	return float64(count) / (float64(horizonNs) / 1e9)
}

// Finalize recomputes the derived throughput rates from the counts
// and horizon (call after filling the raw fields).
func (r *Report) Finalize() {
	r.Throughput.OfferedPerSec = rate(r.Throughput.Offered, r.HorizonNs)
	r.Throughput.AchievedPerSec = rate(r.Throughput.Achieved, r.HorizonNs)
}

// WriteJSON writes the indented document to w, byte-deterministic for
// identical reports.
func (r *Report) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// WriteFile persists the document at path.
func (r *Report) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile loads a persisted report, validating its shape.
func ReadFile(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("report: %s is not a run report: %w", path, err)
	}
	if err := r.Validate(); err != nil {
		return nil, fmt.Errorf("report: %s: %w", path, err)
	}
	return &r, nil
}

// Validate checks the document's structural invariants: a name, a
// positive horizon, non-negative counts, ordered latency rows.
func (r *Report) Validate() error {
	if r.Name == "" {
		return fmt.Errorf("missing run name")
	}
	if r.HorizonNs <= 0 {
		return fmt.Errorf("non-positive horizon %d", r.HorizonNs)
	}
	if r.Throughput.Offered < 0 || r.Throughput.Achieved < 0 {
		return fmt.Errorf("negative throughput counts (%d offered, %d achieved)",
			r.Throughput.Offered, r.Throughput.Achieved)
	}
	if r.Throughput.Achieved > 0 && len(r.Latency) == 0 && !r.hasLoadLatency() {
		return fmt.Errorf("achieved ops but no latency rows")
	}
	seen := make(map[string]bool, len(r.Latency))
	for _, l := range r.Latency {
		if l.Class == "" {
			return fmt.Errorf("latency row without a class")
		}
		k := l.key()
		if seen[k] {
			return fmt.Errorf("duplicate latency row %q", k)
		}
		seen[k] = true
		if l.Count < 0 || l.P50Ns < 0 || l.P99Ns < 0 || l.P999Ns < 0 || l.MaxNs < 0 {
			return fmt.Errorf("latency row %q with negative fields", k)
		}
	}
	loads := make(map[string]bool, len(r.Loads))
	for _, l := range r.Loads {
		if l.Name == "" {
			return fmt.Errorf("load row without a name")
		}
		if loads[l.Name] {
			return fmt.Errorf("duplicate load row %q", l.Name)
		}
		loads[l.Name] = true
		if l.P50Ns < 0 || l.P99Ns < 0 || l.P999Ns < 0 || l.MaxNs < 0 || l.MeanNs < 0 {
			return fmt.Errorf("load row %q with negative latency fields", l.Name)
		}
	}
	return nil
}

// hasLoadLatency reports whether any load row carries its own latency
// attribution — runs whose only latency surface is per-generator (the
// trace plane disabled or classless) still validate.
func (r *Report) hasLoadLatency() bool {
	for _, l := range r.Loads {
		if l.P50Ns > 0 || l.MaxNs > 0 {
			return true
		}
	}
	return false
}
