package scenario

import (
	"bytes"
	"strings"
	"testing"

	"hades/internal/metrics"
)

// TestMetricsSpecValidation rejects malformed observe.metrics blocks
// loudly and accepts well-formed ones.
func TestMetricsSpecValidation(t *testing.T) {
	cases := []struct {
		name    string
		m       *MetricsSpec
		wantErr string // "" = accepted
	}{
		{"rules on disabled plane", &MetricsSpec{Disabled: true,
			SLO: []SLORuleSpec{{Name: "r", Metric: "m", Op: "<=", Threshold: 1}}},
			"slo rules but the plane is disabled"},
		{"both thresholds", &MetricsSpec{
			SLO: []SLORuleSpec{{Name: "r", Metric: "m", Op: "<=", Threshold: 1, ThresholdMs: 2}}},
			"sets both threshold and thresholdMs"},
		{"unknown stat", &MetricsSpec{
			SLO: []SLORuleSpec{{Name: "r", Metric: "m", Stat: "p42", Op: "<=", Threshold: 1}}},
			"unknown stat"},
		{"unknown op", &MetricsSpec{
			SLO: []SLORuleSpec{{Name: "r", Metric: "m", Op: "==", Threshold: 1}}},
			"unknown op"},
		{"missing metric", &MetricsSpec{
			SLO: []SLORuleSpec{{Name: "r", Op: "<=", Threshold: 1}}},
			"needs a metric"},
		{"missing name", &MetricsSpec{
			SLO: []SLORuleSpec{{Metric: "m", Op: "<=", Threshold: 1}}},
			"needs a name"},
		{"valid block", &MetricsSpec{
			SLO: []SLORuleSpec{
				{Name: "lat", Metric: "kv.ack.latency", Stat: "p99", Op: "<=", ThresholdMs: 10},
				{Name: "drops", Metric: "net.drops", Op: "<=", Threshold: 0},
			}}, ""},
		{"disabled plane", &MetricsSpec{Disabled: true}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := Builtin("sharded-kv")
			if err != nil {
				t.Fatal(err)
			}
			spec.Observe = &ObserveSpec{Metrics: tc.m}
			_, err = spec.withDefaults()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("valid metrics block rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("invalid metrics block accepted: %+v", tc.m)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q missing %q", err, tc.wantErr)
			}
		})
	}
}

// TestClientCountAndZipfValidation covers the workload-shape knobs:
// replicated clients must land on free in-range nodes, and the skew
// exponent must not be negative.
func TestClientCountAndZipfValidation(t *testing.T) {
	base := func() Spec {
		spec, err := Builtin("hot-shard")
		if err != nil {
			t.Fatal(err)
		}
		// Builtin returns a shallow copy: clone the shards block before
		// the subtests mutate it.
		sh := *spec.Shards
		sh.Clients = append([]ShardClientSpec(nil), sh.Clients...)
		spec.Shards = &sh
		return spec
	}
	t.Run("count past node range", func(t *testing.T) {
		spec := base()
		spec.Shards.Clients[0].Count = 3 // nodes 6,7,8 with 8 nodes
		if _, err := spec.withDefaults(); err == nil || !strings.Contains(err.Error(), "unknown node 8") {
			t.Fatalf("out-of-range replicated client accepted: %v", err)
		}
	})
	t.Run("negative count", func(t *testing.T) {
		spec := base()
		spec.Shards.Clients[0].Count = -1
		if _, err := spec.withDefaults(); err == nil || !strings.Contains(err.Error(), "negative count") {
			t.Fatalf("negative count accepted: %v", err)
		}
	})
	t.Run("negative skew", func(t *testing.T) {
		spec := base()
		spec.Shards.Clients[0].ZipfSkew = -0.5
		if _, err := spec.withDefaults(); err == nil || !strings.Contains(err.Error(), "negative zipfSkew") {
			t.Fatalf("negative zipfSkew accepted: %v", err)
		}
	})
	t.Run("count onto replica", func(t *testing.T) {
		spec := base()
		spec.Shards.Clients[0].Node = 5 // node 5 is a shard replica
		if _, err := spec.withDefaults(); err == nil || !strings.Contains(err.Error(), "collides with a shard replica") {
			t.Fatalf("replicated client over a replica accepted: %v", err)
		}
	})
}

// seriesTotal sums a counter series' per-interval deltas out of an
// export, reporting whether the series exists at all.
func seriesTotal(ex *metrics.Export, name string) (int64, bool) {
	for _, s := range ex.Series {
		if s.Name != name {
			continue
		}
		var total int64
		for _, p := range s.Points {
			total += p.V
		}
		return total, true
	}
	return 0, false
}

// TestHotShardScenario is the acceptance check for the metrics
// tentpole: a zipf-skewed workload over two shards with a crash on the
// hot shard's primary must (a) name the hot key and its shard in the
// top-k sketch, (b) show the load imbalance in the per-shard counters,
// and (c) record an ack-latency SLO breach whose onset falls in the
// fault window and which clears before the horizon.
func TestHotShardScenario(t *testing.T) {
	spec, err := Builtin("hot-shard")
	if err != nil {
		t.Fatal(err)
	}
	clu, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	rep := clu.Run(spec.Horizon())
	ex := rep.Metrics
	if ex == nil || ex.Scrapes == 0 {
		t.Fatalf("no metrics export from a metrics-enabled run: %+v", ex)
	}

	// (a) The sketch's hottest key is the zipf head, pinned to shard 0.
	if len(ex.TopKeys) == 0 {
		t.Fatal("no hot keys in export")
	}
	hot := ex.TopKeys[0]
	if hot.Key != "alpha" || hot.Shard != 0 {
		t.Fatalf("hottest key = %q on shard %d, want \"alpha\" on shard 0 (top: %+v)", hot.Key, hot.Shard, ex.TopKeys)
	}

	// (b) Shard 0 admits visibly more ops than shard 1.
	ops0, ok0 := seriesTotal(ex, "shard.ops.shard0")
	ops1, ok1 := seriesTotal(ex, "shard.ops.shard1")
	if !ok0 || !ok1 {
		t.Fatalf("per-shard op counters missing (have0=%v have1=%v)", ok0, ok1)
	}
	if ops0 <= ops1 {
		t.Fatalf("hot shard not visible in per-shard counters: shard0=%d shard1=%d", ops0, ops1)
	}

	// (c) The latency SLO breaches during the failover and clears.
	var ack *metrics.RuleData
	for i := range ex.SLO {
		if ex.SLO[i].Name == "ack-p99" {
			ack = &ex.SLO[i]
		}
	}
	if ack == nil {
		t.Fatalf("ack-p99 rule missing from export: %+v", ex.SLO)
	}
	if ack.Evals == 0 || len(ack.Breaches) == 0 {
		t.Fatalf("ack-p99 recorded no breach (evals=%d)", ack.Evals)
	}
	b := ack.Breaches[0]
	if b.Onset <= 0 || b.Clear <= b.Onset {
		t.Fatalf("breach lacks onset/clear instants: %+v", b)
	}
	crashAt := int64(60_000_000) // the fault window opens at 60ms (ns)
	if b.Onset < crashAt {
		t.Fatalf("breach onset %dns precedes the crash at %dns", b.Onset, crashAt)
	}
}

// TestMetricsExportDeterminism: the same spec and seed must serialize
// to byte-identical exports across two independent runs.
func TestMetricsExportDeterminism(t *testing.T) {
	render := func() []byte {
		spec, err := Builtin("hot-shard")
		if err != nil {
			t.Fatal(err)
		}
		clu, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		clu.Run(spec.Horizon())
		var buf bytes.Buffer
		if err := clu.Metrics().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed produced different exports (%d vs %d bytes)", len(a), len(b))
	}
	if len(a) < 100 {
		t.Fatalf("export implausibly small: %s", a)
	}
}
