package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"hades/internal/scenario"
)

// The byte-identity safety net. Runs are pure functions of (code,
// scenario, seed), so any behavioural drift — however small — moves one
// of these bytes; a refactor that means to keep behaviour keeps them all.

var update = flag.Bool("update", false, "rewrite testdata/golden.txt from this build (only when behaviour is meant to change)")

const goldenPath = "testdata/golden.txt"

// everyReport is hades run with every report that prints to stdout on.
var everyReport = []string{"-views", "-partition", "-shards", "-txns", "-pubsub", "-percentiles", "-gantt", "-events"}

// TestCommittedBaselines: hades load reproduces every committed
// baselines/LOAD_<name>.json byte for byte. CI's thresholded hades diff
// only catches movement past 10%; this catches all of it.
func TestCommittedBaselines(t *testing.T) {
	paths, err := filepath.Glob("../../baselines/LOAD_*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed baselines found (%v)", err)
	}
	for _, path := range paths {
		name := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "LOAD_"), ".json")
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(genReport(t, name, "fresh.json"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("hades load -builtin %s no longer reproduces %s (%d vs %d bytes): virtual-time behaviour moved;\n"+
					"inspect with: hades diff -threshold 0 %s <fresh report>", name, path, len(got), len(want), path)
			}
		})
	}
}

// TestRunGolden holds, as SHA-256 digests in testdata/golden.txt, the
// stdout of hades run with every report on for every builtin, and the
// monitor log alone for every builtin at seeds 1–5 (-short: seed 1);
// each of those seeded runs must also pass Cluster.Verify, and no
// retained, violation or fault detail may hold a "%!" marker — the
// record renderer met an argument it does not format. Regenerate
// the digests only with -update, and only when behaviour is meant to
// move.
func TestRunGolden(t *testing.T) {
	got := map[string]string{}
	var keys []string
	record := func(key string, fill func(w io.Writer)) {
		h := sha256.New()
		fill(h)
		got[key] = fmt.Sprintf("%x", h.Sum(nil))
		keys = append(keys, key)
	}
	seeds := 5
	if testing.Short() && !*update {
		seeds = 1
	}
	for _, name := range scenario.BuiltinNames() {
		record("run/"+name, func(w io.Writer) {
			var stderr bytes.Buffer
			args := append([]string{"run", "-builtin", name}, everyReport...)
			if code := run(args, w, &stderr); code != 0 {
				t.Fatalf("hades %s exited %d: %s", strings.Join(args, " "), code, stderr.String())
			}
		})
		for seed := 1; seed <= seeds; seed++ {
			record(fmt.Sprintf("log/%s/seed%d", name, seed), func(w io.Writer) {
				spec, err := scenario.Builtin(name)
				if err != nil {
					t.Fatal(err)
				}
				spec.Seed = int64(seed)
				clu, err := spec.Build()
				if err != nil {
					t.Fatal(err)
				}
				clu.Run(spec.Horizon())
				if err := clu.Log().WriteTrace(w); err != nil {
					t.Fatal(err)
				}
				if err := clu.Verify(); err != nil {
					t.Errorf("%s at seed %d: audits failed: %v", name, seed, err)
				}
				log := clu.Log()
				for _, e := range slices.Concat(log.Events(), log.Violations(), log.Faults()) {
					if strings.Contains(e.Detail, "%!") {
						t.Errorf("%s at seed %d: malformed detail in %q", name, seed, e)
					}
				}
			})
		}
	}
	if *update {
		sort.Strings(keys)
		var out bytes.Buffer
		for _, key := range keys {
			fmt.Fprintf(&out, "%s %s\n", key, got[key])
		}
		if err := os.WriteFile(goldenPath, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		key, digest, _ := strings.Cut(line, " ")
		want[key] = digest
	}
	for _, key := range keys {
		switch {
		case want[key] == "":
			t.Errorf("%s: no golden digest (a new builtin? record it with -update)", key)
		case want[key] != got[key]:
			t.Errorf("%s: output changed (digest %s, golden %s)", key, got[key], want[key])
		}
	}
	if !testing.Short() && len(want) != len(keys) {
		t.Errorf("golden.txt holds %d digests, this build produced %d (a retired builtin? drop it with -update)", len(want), len(keys))
	}
}
