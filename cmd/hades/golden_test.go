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

// everyReport is hades run with every optional section it prints to
// stdout on: the CPU chart and the full monitor event trace.
var everyReport = []string{"-gantt", "-events"}

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
			t.Parallel()
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
// stdout of hades run -gantt -events and of hades feas -validate for
// every builtin, and the monitor log alone for every builtin at seeds
// 1–5 (-short: seed 1);
// each of those seeded runs must also pass Cluster.Verify, and no
// retained, violation or fault detail may hold a "%!" marker — the
// record renderer met an argument it does not format. Regenerate
// the digests only with -update, and only when behaviour is meant to
// move.
//
// Each run is a parallel subtest, named by its golden key, that fills
// its own slot; the digests are compared once both groups have returned.
// Runs execute side by side, so state two of them share shows here as a
// digest change, and under go test -race as a race.
func TestRunGolden(t *testing.T) {
	type slot struct{ key, digest string }
	var slots []*slot
	record := func(t *testing.T, group, name string, fill func(t *testing.T, w io.Writer)) {
		s := &slot{key: group + "/" + name}
		slots = append(slots, s)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			h := sha256.New()
			fill(t, h)
			s.digest = fmt.Sprintf("%x", h.Sum(nil))
		})
	}
	seeds := 5
	if testing.Short() && !*update {
		seeds = 1
	}
	t.Run("run", func(t *testing.T) {
		for _, name := range scenario.BuiltinNames() {
			record(t, "run", name, func(t *testing.T, w io.Writer) {
				var stderr bytes.Buffer
				args := append([]string{"run", "-builtin", name}, everyReport...)
				if code := run(args, w, &stderr); code != 0 {
					t.Fatalf("hades %s exited %d: %s", strings.Join(args, " "), code, stderr.String())
				}
			})
		}
	})
	t.Run("feas", func(t *testing.T) {
		for _, name := range scenario.BuiltinNames() {
			record(t, "feas", name, func(t *testing.T, w io.Writer) {
				var stderr bytes.Buffer
				args := []string{"feas", "-builtin", name, "-validate"}
				if code := run(args, w, &stderr); code != 0 {
					t.Fatalf("hades %s exited %d: %s", strings.Join(args, " "), code, stderr.String())
				}
			})
		}
	})
	t.Run("log", func(t *testing.T) {
		for _, name := range scenario.BuiltinNames() {
			for seed := 1; seed <= seeds; seed++ {
				record(t, "log", fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T, w io.Writer) {
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
	})
	if *update {
		if t.Failed() {
			return
		}
		sort.Slice(slots, func(i, j int) bool { return slots[i].key < slots[j].key })
		var out bytes.Buffer
		for _, s := range slots {
			fmt.Fprintf(&out, "%s %s\n", s.key, s.digest)
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
	for _, s := range slots {
		switch {
		case s.digest == "":
			// its run stopped early and said why
		case want[s.key] == "":
			t.Errorf("%s: no golden digest (a new builtin? record it with -update)", s.key)
		case want[s.key] != s.digest:
			t.Errorf("%s: output changed (digest %s, golden %s)", s.key, s.digest, want[s.key])
		}
	}
	if !testing.Short() && len(want) != len(slots) {
		t.Errorf("golden.txt holds %d digests, this build produced %d (a retired builtin? drop it with -update)", len(want), len(slots))
	}
}
