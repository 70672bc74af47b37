package scenario

import (
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"hades/internal/vtime"
)

// TestRejectCorpus: every file under testdata/reject is a scenario an
// earlier loader accepted and that then panicked in the builder, hung
// Build, cross-wired two groups, ran under the wrong enum value or set a
// key since retired. Load must refuse each, naming what is wrong.
func TestRejectCorpus(t *testing.T) {
	want := map[string]string{
		"task-node.json":                   `task "t" on unknown node 7`,
		"kv-load-on-txn-node.json":         `load "k": two clients on node 6`,
		"kv-and-txn-loads-share-node.json": `load "t": two clients on node 6`,
		"sub-ns-interval.json":             "positive submitEveryMs (at least 1ns",
		"ns-interval.json":                 "500000000 submissions before the 500ms horizon",
		"costs-typo.json":                  `unknown costs "zer" (want one of default, zero)`,
		"law-typo.json":                    `unknown law "periodc" (want one of periodic, sporadic)`,
		"scheduler-typo.json":              `unknown scheduler "EDFF" (want one of DM, EDF, RM, Spring, best-effort)`,
		"policy-typo.json":                 `unknown policy "SRPP" (want one of PCP, SRP, none)`,
		"group-shard-name.json":            `group "shard0" takes the name of one of the shards block's own groups`,
		"retired-key.json":                 `unknown field "vnodes"`,
		"retired-observe-key.json":         `unknown field "retainViolations"`,
		"group-load.json":                  `unknown field "load"`,
	}
	files, err := filepath.Glob("testdata/reject/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(want) {
		t.Fatalf("corpus holds %d files, the table %d rows: %v", len(files), len(want), files)
	}
	for _, f := range files {
		t.Run(filepath.Base(f), func(t *testing.T) {
			_, err := Load(f)
			if sub := want[filepath.Base(f)]; err == nil || sub == "" || !strings.Contains(err.Error(), sub) {
				t.Fatalf("error %v, want one containing %q", err, sub)
			}
		})
	}
}

// nodeFields are the spec fields (scalars, and lists by their field
// name) that hold node indices; every other integer is a count.
var nodeFields = []string{"Node", "A", "B", "SubmitFrom", "Nodes", "Partition"}

// mutations lists the values one field of a spec is tried at: each
// node reference at -1, the node count, a shard replica's node and a
// declared client's; each count at -1, 0 and 1<<20; each duration,
// rate and probability at 1e-7, 1e-3 and -1; each name and enum at
// "bogus"; each list with its first item declared twice.
func mutations(s Spec, path, field string, v reflect.Value) []reflect.Value {
	var out []reflect.Value
	add := func(vals ...any) {
		for _, x := range vals {
			out = append(out, reflect.ValueOf(x).Convert(v.Type()))
		}
	}
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		if path == ".Nodes" || !slices.Contains(nodeFields, field) {
			add(-1, 0, 1<<20)
			break
		}
		add(-1, s.Nodes, 0)
		if sp := s.Shards; sp != nil && len(sp.Clients) > 0 {
			add(sp.Clients[0].Node)
		} else if sp != nil && len(sp.Txns) > 0 {
			add(sp.Txns[0].Node)
		}
	case reflect.Float64:
		add(1e-7, 1e-3, -1.0)
	case reflect.String:
		add("bogus")
	case reflect.Slice:
		if v.Len() > 0 {
			out = append(out, reflect.Append(v, v.Index(0)))
		}
	}
	return out
}

// walk visits every field of a spec in declaration order — through
// pointers, list items and (key-sorted) map values — handing visit the
// path, the name of the spec field that holds the value and a setter.
func walk(v reflect.Value, path, field string, visit func(path, field string, v reflect.Value, set func(reflect.Value))) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			walk(v.Elem(), path, field, visit)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			name := v.Type().Field(i).Name
			walk(v.Field(i), path+"."+name, name, visit)
		}
	case reflect.Map:
		keys := v.MapKeys()
		slices.SortFunc(keys, func(a, b reflect.Value) int { return strings.Compare(a.String(), b.String()) })
		for _, k := range keys {
			visit(fmt.Sprintf("%s[%q]", path, k), field, v.MapIndex(k), func(x reflect.Value) { v.SetMapIndex(k, x) })
		}
	case reflect.Slice:
		visit(path, field, v, v.Set)
		for i := 0; i < v.Len(); i++ {
			walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i), field, visit)
		}
	default:
		visit(path, field, v, v.Set)
	}
}

// TestAcceptedSpecBuilds is the loader's contract: whatever
// withDefaults accepts, Build lowers without error or panic and the
// cluster runs. Every builtin is tried under every single-field
// mutation; a mutant validation refuses proves nothing and is skipped.
// Each accepted mutant builds and runs for 1 virtual ms on its own
// goroutine under a watchdog, so a hang fails the test instead of
// stalling it.
func TestAcceptedSpecBuilds(t *testing.T) {
	for _, name := range BuiltinNames() {
		t.Run(name, func(t *testing.T) {
			base, err := Builtin(name)
			if err != nil {
				t.Fatal(err)
			}
			type mutant struct {
				path string
				nth  int
			}
			var mutants []mutant
			walk(reflect.ValueOf(&base), "", "", func(path, field string, v reflect.Value, _ func(reflect.Value)) {
				for nth := range mutations(base, path, field, v) {
					mutants = append(mutants, mutant{path, nth})
				}
			})
			accepted := 0
			for _, m := range mutants {
				spec, _ := Builtin(name) // a fresh copy: mutants share nothing
				what := ""
				walk(reflect.ValueOf(&spec), "", "", func(path, field string, v reflect.Value, set func(reflect.Value)) {
					if path == m.path && what == "" {
						to := mutations(base, path, field, v)[m.nth]
						what = fmt.Sprintf("%s = %v", path, to)
						set(to)
					}
				})
				spec, err := spec.withDefaults()
				if err != nil {
					continue
				}
				accepted++
				done := make(chan error, 1)
				go func() {
					defer func() {
						if r := recover(); r != nil {
							done <- fmt.Errorf("panic: %v", r)
						}
					}()
					c, err := spec.Build()
					if err == nil {
						c.Run(vtime.Millisecond)
					}
					done <- err
				}()
				select {
				case err := <-done:
					if err != nil {
						t.Errorf("%s: accepted by withDefaults, then %v", what, err)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("%s: accepted by withDefaults, then Build+Run(1ms) did not return within 5s", what)
				}
			}
			t.Logf("%d mutants, %d accepted", len(mutants), accepted)
		})
	}
}
