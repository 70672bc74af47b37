package scenario

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"hades/internal/cluster"
)

// latencyOf returns the latency row of one op class on one shard (-1
// for the all-shards aggregate).
func latencyOf(rep cluster.Result, class string, shard int) (cluster.LatencyResult, bool) {
	i := slices.IndexFunc(rep.Latency, func(l cluster.LatencyResult) bool { return l.Class == class && l.Shard == shard })
	if i < 0 {
		return cluster.LatencyResult{}, false
	}
	return rep.Latency[i], true
}

// TestObserveValidation rejects out-of-range observe blocks loudly and
// accepts well-formed ones.
func TestObserveValidation(t *testing.T) {
	base := func() Spec {
		spec, err := Builtin("sharded-kv")
		if err != nil {
			t.Fatal(err)
		}
		return spec
	}
	cases := []struct {
		name    string
		observe *ObserveSpec
		wantErr string // "" = accepted
	}{
		{"rate above one", &ObserveSpec{TraceSampleRate: fptr(1.5)}, "traceSampleRate must be within [0,1]"},
		{"negative rate", &ObserveSpec{TraceSampleRate: fptr(-0.1)}, "traceSampleRate must be within [0,1]"},
		{"zero log limit", &ObserveSpec{LogLimit: iptr(0)}, "logLimit must be positive"},
		{"negative log limit", &ObserveSpec{LogLimit: iptr(-5)}, "logLimit must be positive"},
		{"valid block", &ObserveSpec{TraceSampleRate: fptr(0.25), LogLimit: iptr(100), RetainViolations: true}, ""},
		{"boundary rates", &ObserveSpec{TraceSampleRate: fptr(0)}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := base()
			spec.Observe = tc.observe
			_, err := spec.withDefaults()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("valid observe block rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("invalid observe block accepted: %+v", tc.observe)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q missing %q", err, tc.wantErr)
			}
		})
	}
}

// TestObserveJSONRoundTrip loads an observe block from scenario JSON
// and checks both the happy path and the loud rejection.
func TestObserveJSONRoundTrip(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	data := `{
		"name": "observe-test", "nodes": 2, "seed": 3, "scheduler": "RM", "horizonMs": 50,
		"observe": {"traceSampleRate": 0.5, "logLimit": 200, "retainViolations": true},
		"tasks": [{"name": "a", "node": 0, "cBeforeUs": 500, "deadlineMs": 10, "periodMs": 10, "law": "periodic"}]
	}`
	if err := os.WriteFile(good, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err := Load(good)
	if err != nil {
		t.Fatal(err)
	}
	o := spec.Observe
	if o == nil || o.TraceSampleRate == nil || *o.TraceSampleRate != 0.5 ||
		o.LogLimit == nil || *o.LogLimit != 200 || !o.RetainViolations {
		t.Fatalf("observe block not parsed: %+v", o)
	}
	clu, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if tr := clu.Tracer(); tr == nil || tr.Rate() != 0.5 {
		t.Fatalf("tracer not wired from observe block: %v", tr)
	}

	bad := filepath.Join(dir, "bad.json")
	data = strings.Replace(data, `"traceSampleRate": 0.5`, `"traceSampleRate": 7`, 1)
	if err := os.WriteFile(bad, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bad); err == nil || !strings.Contains(err.Error(), "traceSampleRate must be within [0,1]") {
		t.Fatalf("out-of-range sample rate not rejected loudly: %v", err)
	}
}

// TestLatencyRowsPerShardAndClass is the tentpole acceptance check:
// both builtin scenarios report p50/p99/p999 per shard and per op
// class, and every row's layer breakdown accounts for its mean.
func TestLatencyRowsPerShardAndClass(t *testing.T) {
	cases := []struct {
		builtin string
		classes []string
	}{
		{"sharded-kv", []string{"kv.write"}},
		{"bank-transfer", []string{"txn.commit", "txn.abort"}},
	}
	for _, tc := range cases {
		t.Run(tc.builtin, func(t *testing.T) {
			spec, err := Builtin(tc.builtin)
			if err != nil {
				t.Fatal(err)
			}
			clu, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			rep := clu.Run(spec.Horizon())
			for _, class := range tc.classes {
				for _, shard := range []int{0, 1, -1} {
					l, ok := latencyOf(rep, class, shard)
					if !ok {
						t.Errorf("no latency row for class %q shard %d", class, shard)
						continue
					}
					if l.Count == 0 || l.P50 <= 0 || l.P99 < l.P50 || l.P999 < l.P99 || l.Max < l.P999 {
						t.Errorf("implausible percentiles for %q shard %d: %+v", class, shard, l)
					}
					// The layer means must account for the end-to-end mean
					// to within integer-division rounding (one unit per
					// layer, ~1ns each at these scales — far inside the 1%
					// acceptance bound).
					sum := l.Queued + l.Batched + l.Wire + l.Replicating + l.Locked + l.Other
					diff := l.Mean - sum
					if diff < 0 {
						diff = -diff
					}
					if diff > 6 {
						t.Errorf("layer breakdown for %q shard %d off by %s (mean %s, sum %s)",
							class, shard, diff, l.Mean, sum)
					}
				}
			}
			// The exact invariant holds at the ScopeStats level: layers
			// partition every trace's root interval with no gap.
			for _, st := range clu.Tracer().Stats() {
				if got, want := st.Layers.Total(), st.Total; got != want {
					t.Errorf("%s shard %d: layer total %s != trace total %s", st.Class, st.Shard, got, want)
				}
			}
		})
	}
}

// TestZeroRateStillRetainsViolations runs bank-transfer with sampling
// off: histograms still observe every op, and every abort's full span
// tree is retained because aborts mark their traces violating.
func TestZeroRateStillRetainsViolations(t *testing.T) {
	spec, err := Builtin("bank-transfer")
	if err != nil {
		t.Fatal(err)
	}
	spec.Observe = &ObserveSpec{TraceSampleRate: fptr(0), RetainViolations: true}
	clu, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	rep := clu.Run(spec.Horizon())
	tr := clu.Tracer()
	started, finished, retained, violating := tr.Counts()
	if started == 0 || finished == 0 {
		t.Fatalf("no traces observed: started=%d finished=%d", started, finished)
	}
	if retained != violating {
		t.Fatalf("at rate 0 only violating traces should be retained: retained=%d violating=%d", retained, violating)
	}
	aborts := 0
	for _, trc := range tr.Retained() {
		if len(trc.Violations()) == 0 {
			t.Fatalf("non-violating trace %d retained at rate 0", trc.ID())
		}
		if trc.Class() == "txn.abort" {
			aborts++
		}
	}
	if aborts == 0 {
		t.Fatal("no abort trace retained at rate 0")
	}
	// Histograms still cover the whole population, not just retained.
	if l, ok := latencyOf(rep, "txn.commit", -1); !ok || l.Count == 0 {
		t.Fatal("histograms lost the unsampled commits")
	}
}

func iptr(i int) *int { return &i }

func fptr(f float64) *float64 { return &f }
