package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"hades/internal/monitor"
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
// stdout of hades run -gantt -events, the JSON file of hades run
// -metrics and the stdout of hades feas -validate for every builtin,
// and the monitor log alone, every kind kept, for every builtin at
// seeds 1–5 (-short: seed 1);
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
	g := &goldenSet{groups: []string{"run", "feas", "log", "metrics"}}
	seeds := 5
	if testing.Short() && !*update {
		seeds = 1
	}
	t.Run("run", func(t *testing.T) {
		for _, name := range scenario.BuiltinNames() {
			g.record(t, "run", name, func(t *testing.T, w io.Writer) {
				hades(t, w, append([]string{"run", "-builtin", name}, everyReport...)...)
			})
		}
	})
	t.Run("feas", func(t *testing.T) {
		for _, name := range scenario.BuiltinNames() {
			g.record(t, "feas", name, func(t *testing.T, w io.Writer) {
				hades(t, w, "feas", "-builtin", name, "-validate")
			})
		}
	})
	t.Run("metrics", func(t *testing.T) {
		for _, name := range scenario.BuiltinNames() {
			g.record(t, "metrics", name, func(t *testing.T, w io.Writer) {
				path := filepath.Join(t.TempDir(), "m.json")
				hades(t, io.Discard, "run", "-builtin", name, "-metrics", path)
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				w.Write(data)
			})
		}
	})
	t.Run("log", func(t *testing.T) {
		for _, name := range scenario.BuiltinNames() {
			for seed := 1; seed <= seeds; seed++ {
				g.record(t, "log", fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T, w io.Writer) {
					spec, err := scenario.Builtin(name)
					if err != nil {
						t.Fatal(err)
					}
					spec.Seed = int64(seed)
					clu, err := spec.Build()
					if err != nil {
						t.Fatal(err)
					}
					clu.Log().Keep(monitor.Kinds()...)
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
	g.check(t)
}

// TestOrderGolden holds, in the same testdata/golden.txt, the stdout of
// hades run -gantt -events for the inversion builtin with its three
// tasks declared in each of the six orders, under SRP and under PCP
// (perm/inversion/<policy>/<order>), and of the quick hades exp tables
// F1 (RM+PCP beside a best-effort app on one node) and X2 (the one run
// where PCP priority inheritance happens). They pin what the resource
// policies decide in every order, so a change to the start test moves
// exactly the rows it means to.
//
// perm/inversion/SRP/mid-low-high is ROADMAP item 34's reproduction:
// high misses 10 of 10 deadlines there (average response 24.302 ms
// against D = 20 ms) while the other eleven runs miss nothing. The fix
// for item 34 changes that line and no other.
func TestOrderGolden(t *testing.T) {
	g := &goldenSet{groups: []string{"perm", "exp"}}
	data, err := os.ReadFile("../../internal/scenario/builtins/inversion.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]any
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	tasks := spec["tasks"].([]any)
	name := func(i int) string { return tasks[i].(map[string]any)["name"].(string) }
	orders := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	t.Run("perm", func(t *testing.T) {
		for _, policy := range []string{"SRP", "PCP"} {
			for _, order := range orders {
				var names []string
				var permuted []any
				for _, i := range order {
					names = append(names, name(i))
					permuted = append(permuted, tasks[i])
				}
				key := fmt.Sprintf("inversion/%s/%s", policy, strings.Join(names, "-"))
				g.record(t, "perm", key, func(t *testing.T, w io.Writer) {
					s := maps.Clone(spec)
					s["policy"], s["tasks"] = policy, permuted
					b, err := json.Marshal(s)
					if err != nil {
						t.Fatal(err)
					}
					path := filepath.Join(t.TempDir(), "inversion.json")
					if err := os.WriteFile(path, b, 0o644); err != nil {
						t.Fatal(err)
					}
					hades(t, w, append([]string{"run", "-scenario", path}, everyReport...)...)
				})
			}
		}
	})
	t.Run("exp", func(t *testing.T) {
		for _, id := range []string{"F1", "X2"} {
			g.record(t, "exp", id, func(t *testing.T, w io.Writer) {
				hades(t, w, "exp", "-run", id, "-quick")
			})
		}
	})
	g.check(t)
}

// hades runs the command line args and writes its stdout to w; the
// test fails unless it exits 0.
func hades(t *testing.T, w io.Writer, args ...string) {
	t.Helper()
	var stderr bytes.Buffer
	if code := run(args, w, &stderr); code != 0 {
		t.Fatalf("hades %s exited %d: %s", strings.Join(args, " "), code, stderr.String())
	}
}

// goldenSet is one test's share of testdata/golden.txt: the digests
// whose key starts with one of its groups. Each run is a parallel
// subtest, named by its key, that fills its own slot; check compares
// the slots once every group has returned, or under -update rewrites
// the set's lines and keeps every other test's.
type goldenSet struct {
	groups []string
	slots  []*goldenSlot
}

type goldenSlot struct{ key, digest string }

// record runs fill as the parallel subtest name of t and keeps the
// SHA-256 of what it writes under group/name.
func (g *goldenSet) record(t *testing.T, group, name string, fill func(t *testing.T, w io.Writer)) {
	s := &goldenSlot{key: group + "/" + name}
	g.slots = append(g.slots, s)
	t.Run(name, func(t *testing.T) {
		t.Parallel()
		h := sha256.New()
		fill(t, h)
		s.digest = fmt.Sprintf("%x", h.Sum(nil))
	})
}

func (g *goldenSet) owns(key string) bool {
	group, _, _ := strings.Cut(key, "/")
	return slices.Contains(g.groups, group)
}

func (g *goldenSet) check(t *testing.T) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	var others []*goldenSlot
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		key, digest, _ := strings.Cut(line, " ")
		if g.owns(key) {
			want[key] = digest
		} else {
			others = append(others, &goldenSlot{key, digest})
		}
	}
	if *update {
		if t.Failed() {
			return
		}
		all := append(others, g.slots...)
		sort.Slice(all, func(i, j int) bool { return all[i].key < all[j].key })
		var out bytes.Buffer
		for _, s := range all {
			fmt.Fprintf(&out, "%s %s\n", s.key, s.digest)
		}
		if err := os.WriteFile(goldenPath, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for _, s := range g.slots {
		switch {
		case s.digest == "":
			// its run stopped early and said why
		case want[s.key] == "":
			t.Errorf("%s: no golden digest (a new run? record it with -update)", s.key)
		case want[s.key] != s.digest:
			t.Errorf("%s: output changed (digest %s, golden %s)", s.key, s.digest, want[s.key])
		}
	}
	if !testing.Short() && len(want) != len(g.slots) {
		t.Errorf("golden.txt holds %d digests of %v, this build produced %d (a retired run? drop it with -update)", len(want), g.groups, len(g.slots))
	}
}
