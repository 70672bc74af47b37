package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hades/internal/cluster"
	"hades/internal/report"
)

// genReport runs a builtin through the CLI into a temp file and
// returns the path.
func genReport(t *testing.T, builtin, name string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	var out, errb bytes.Buffer
	if code := run([]string{"load", "-builtin", builtin, "-out", path}, &out, &errb); code != 0 {
		t.Fatalf("run exited %d: %s", code, errb.String())
	}
	return path
}

func TestRunBuiltinWritesValidReport(t *testing.T) {
	for _, builtin := range []string{"load-ramp", "hot-shard", "bank-transfer"} {
		t.Run(builtin, func(t *testing.T) {
			path := genReport(t, builtin, "r.json")
			doc, err := report.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if doc.Name != builtin {
				t.Fatalf("report name = %q, want %q", doc.Name, builtin)
			}
			if doc.Throughput.Achieved == 0 {
				t.Fatal("report records no achieved ops")
			}
			if len(doc.Latency) == 0 {
				t.Fatal("report has no latency rows")
			}
			for _, l := range doc.Latency {
				if l.Count > 0 && l.P999Ns == 0 {
					t.Fatalf("latency row %s shard %d has observations but no p999", l.Class, l.Shard)
				}
			}
		})
	}
}

// TestReportDeterministic: two CLI runs of the same builtin produce
// byte-identical LOAD_*.json documents (the acceptance criterion the
// committed baselines rest on).
func TestReportDeterministic(t *testing.T) {
	a, err := os.ReadFile(genReport(t, "load-ramp", "a.json"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(genReport(t, "load-ramp", "b.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("same builtin and seed wrote different report bytes")
	}
}

func TestCheckReport(t *testing.T) {
	path := genReport(t, "load-ramp", "r.json")
	var out, errb bytes.Buffer
	if code := run([]string{"check", path}, &out, &errb); code != 0 {
		t.Fatalf("check on a fresh report exited %d: %s", code, errb.String())
	}
	if !strings.HasPrefix(out.String(), "ok:") {
		t.Fatalf("check output %q", out.String())
	}
	// A malformed file fails the check.
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"name":"x"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"check", bad}, &out, &errb); code == 0 {
		t.Fatal("check accepted a report without a horizon")
	}
}

// TestDiffGate: the reports of two identical runs pass; an injected
// p99 regression past the threshold exits 1; the same change under a
// looser threshold passes.
func TestDiffGate(t *testing.T) {
	base, path := genReport(t, "load-ramp", "base.json"), genReport(t, "load-ramp", "new.json")
	var out, errb bytes.Buffer
	if code := run([]string{"diff", base, path}, &out, &errb); code != 0 {
		t.Fatalf("diff of two identical runs exited %d: %s\n%s", code, errb.String(), out.String())
	}

	// Doctor the baseline into an impossible standard: p99s at half
	// the fresh run's make the fresh run look >100% worse.
	doc, err := report.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	for i := range doc.Latency {
		doc.Latency[i].P99Ns /= 2
	}
	if err := doc.WriteFile(base); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if code := run([]string{"diff", base, path}, &out, &errb); code != 1 {
		t.Fatalf("injected p99 regression exited %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSIONS") {
		t.Fatalf("diff output names no regressions:\n%s", out.String())
	}
	// Loosened threshold: +100% is allowed at 1.5.
	out.Reset()
	if code := run([]string{"diff", "-threshold", "1.5", base, path}, &out, &errb); code != 0 {
		t.Fatalf("loose-threshold diff exited %d\n%s", code, out.String())
	}
}

// TestLoadAuditGatesExitCode: a load run whose audits fail still writes
// its report, names the failure on stderr and exits 1.
func TestLoadAuditGatesExitCode(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.json")
	defer func(v func(*cluster.Cluster) error) { verify = v }(verify)
	verify = func(*cluster.Cluster) error { return errors.New("lost ack (forced)") }

	var out, errb bytes.Buffer
	if code := run([]string{"load", "-builtin", "load-ramp", "-out", path}, &out, &errb); code != 1 {
		t.Fatalf("exit code = %d with a failing audit, want 1\nstderr:\n%s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "lost ack (forced)") {
		t.Errorf("stderr does not name the failed audit:\n%s", errb.String())
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Errorf("report not written before the audit failed the run (%v)", err)
	}
}

func TestArgErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"load"}, &out, &errb); code != 2 {
		t.Fatalf("no inputs exited %d, want 2", code)
	}
	if code := run([]string{"load", "-builtin", "load-ramp", "-scenario", "x.json"}, &out, &errb); code != 2 {
		t.Fatalf("both inputs exited %d, want 2", code)
	}
	if code := run([]string{"load", "-builtin", "no-such-builtin"}, &out, &errb); code != 2 {
		t.Fatalf("unknown builtin exited %d, want 2", code)
	}
	if code := run([]string{"diff", "only-one.json"}, &out, &errb); code != 2 {
		t.Fatalf("one-file diff exited %d, want 2", code)
	}
}
