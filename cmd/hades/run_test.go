package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hades/internal/cluster"
	"hades/internal/trace"
)

// TestRunFlags table-tests hades run: exit codes, error text and
// success output for the observability flags; and a run that declares
// no transactions prints no transaction row, whatever reports are on.
func TestRunFlags(t *testing.T) {
	tmp := t.TempDir()
	cases := []cliCase{
		{
			name:       "list builtins",
			args:       []string{"list"},
			wantCode:   0,
			wantStdout: "bank-transfer",
		},
		{
			name:       "unknown builtin",
			args:       []string{"run", "-builtin", "no-such-scenario"},
			wantCode:   2,
			wantStderr: "no-such-scenario",
		},
		{
			name:       "missing scenario file",
			args:       []string{"run", "-scenario", filepath.Join(tmp, "absent.json")},
			wantCode:   2,
			wantStderr: "absent.json",
		},
		{
			name:       "unwritable trace path",
			args:       []string{"run", "-builtin", "sharded-kv", "-trace", filepath.Join(tmp, "no-such-dir", "out.json")},
			wantCode:   2,
			wantStderr: "cannot write trace file",
		},
		{
			name:       "trace export",
			args:       []string{"run", "-builtin", "bank-transfer", "-trace", filepath.Join(tmp, "bt.json")},
			wantCode:   0,
			wantStdout: "trace(s) to",
		},
		{
			name:       "percentiles report",
			args:       []string{"run", "-builtin", "bank-transfer"},
			wantCode:   0,
			wantStdout: "lat txn.commit  all  n=",
		},
		{
			name:       "metrics export",
			args:       []string{"run", "-builtin", "hot-shard", "-metrics", filepath.Join(tmp, "m.json")},
			wantCode:   0,
			wantStdout: "series (80 scrapes) to",
		},
		{
			name:       "unwritable metrics path",
			args:       []string{"run", "-builtin", "hot-shard", "-metrics", filepath.Join(tmp, "no-such-dir", "m.json")},
			wantCode:   2,
			wantStderr: "cannot write metrics file",
		},
		{
			name:       "bad flag",
			args:       []string{"run", "-no-such-flag"},
			wantCode:   2,
			wantStderr: "flag provided but not defined",
		},
	}
	runCases(t, cases)

	var stdout, stderr bytes.Buffer
	args := append([]string{"run", "-builtin", "sensor-fan-out"}, everyReport...)
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("hades %s exited %d: %s", strings.Join(args, " "), code, stderr.String())
	}
	for _, row := range []string{"coord", "txn"} {
		if strings.Contains(stdout.String(), row) {
			t.Errorf("sensor-fan-out declares no transactions, yet its run prints %q:\n%s", row, stdout.String())
		}
	}
}

// TestTraceExportIsLoadable runs a builtin with -trace and checks the
// exported file parses as Chrome trace JSON with the span shapes the
// acceptance criteria call for: a committed transaction whose tree
// holds both a replication-round span and a lock-wait span.
func TestTraceExportIsLoadable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bt.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"run", "-builtin", "bank-transfer", "-trace", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("run failed (%d): %s", code, stderr.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc trace.ChromeDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("exported file is not Chrome trace JSON: %v", err)
	}
	// Regroup spans by trace (tid) and look for a commit with both a
	// replication-round and a lock-wait child.
	type rec struct {
		commit, repl, lock bool
	}
	byID := make(map[uint64]*rec)
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		r := byID[e.Tid]
		if r == nil {
			r = &rec{}
			byID[e.Tid] = r
		}
		switch {
		case e.Name == "txn.commit":
			r.commit = true
		case strings.HasPrefix(e.Name, "2pc.decision.log"):
			r.repl = true
		case strings.HasPrefix(e.Name, "lock.wait"):
			r.lock = true
		}
	}
	found := 0
	for _, r := range byID {
		if r.commit && r.repl && r.lock {
			found++
		}
	}
	if found == 0 {
		t.Fatal("no committed transaction trace holds both a replication-round and a lock-wait span")
	}
}

// TestTraceExportDeterminism is the satellite-4 guarantee: the same
// seed yields byte-identical exported trace JSON across runs, for both
// builtin scenarios.
func TestTraceExportDeterminism(t *testing.T) {
	for _, builtin := range []string{"sharded-kv", "bank-transfer"} {
		t.Run(builtin, func(t *testing.T) {
			tmp := t.TempDir()
			var out [2][]byte
			for i := range out {
				path := filepath.Join(tmp, "run.json")
				var stdout, stderr bytes.Buffer
				if code := run([]string{"run", "-builtin", builtin, "-trace", path}, &stdout, &stderr); code != 0 {
					t.Fatalf("run %d failed: %s", i, stderr.String())
				}
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				out[i] = data
			}
			if !bytes.Equal(out[0], out[1]) {
				t.Fatalf("exported trace JSON differs between identical runs (%d vs %d bytes)", len(out[0]), len(out[1]))
			}
		})
	}
}

// TestAuditGatesExitCode: a failed end-of-run audit exits 1, is the
// run's one audit verdict on stdout, and comes only after the exports
// were written.
func TestAuditGatesExitCode(t *testing.T) {
	defer func(v func(*cluster.Cluster) error) { verify = v }(verify)
	verify = func(*cluster.Cluster) error { return errors.New("torn transaction (forced)") }

	tmp := t.TempDir()
	tracePath, metricsPath := filepath.Join(tmp, "t.json"), filepath.Join(tmp, "m.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"run", "-builtin", "bank-transfer", "-trace", tracePath, "-metrics", metricsPath}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit code = %d with a failing audit, want 1\nstderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "torn transaction (forced)") {
		t.Errorf("stderr does not name the failed audit:\n%s", stderr.String())
	}
	if got := strings.Count(stdout.String(), "audits: "); got != 1 || !strings.Contains(stdout.String(), "audits: FAILED: torn transaction (forced)\n") {
		t.Errorf("stdout holds %d audit verdicts, want the one failure:\n%s", got, stdout.String())
	}
	for _, path := range []string{tracePath, metricsPath} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s not written before the audit failed the run (%v)", filepath.Base(path), err)
		}
	}
}

// TestPassiveShardsExitZero: passive shards lose acknowledged work by
// design, so the exactly-once audit neither runs on them nor gates their
// exit code: the run's account names the style and its one verdict
// passes.
func TestPassiveShardsExitZero(t *testing.T) {
	path := filepath.Join(t.TempDir(), "passive.json")
	spec := `{"name":"passive-kv","nodes":3,"seed":1,"scheduler":"EDF","horizonMs":100,
		"shards":{"count":1,"replicasPer":2,"style":"passive",
			"clients":[{"node":2,"keys":["a","b"],"submitEveryMs":2}]}}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"run", "-scenario", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "style=passive") {
		t.Errorf("the run was not passive:\n%s", stdout.String())
	}
	if !strings.Contains(stdout.String(), "audits: ok\n") || strings.Contains(stdout.String(), "VIOLATION") {
		t.Errorf("a passive run is not one passing audit verdict:\n%s", stdout.String())
	}
}
