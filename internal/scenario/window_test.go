package scenario

import (
	"path/filepath"
	"slices"
	"testing"

	"hades/internal/monitor"
)

// TestDefaultWindowKeepsOnlyTaskDone: a default Build+Run of every
// builtin and every regress file retains no monitor record but
// TaskDone, and reads as a run that kept every kind everywhere else:
// the same violations, faults, drop count, TaskDone records and count
// of every kind, since the window's bound counts every record made.
func TestDefaultWindowKeepsOnlyTaskDone(t *testing.T) {
	files, err := filepath.Glob("testdata/regress/*.json")
	if err != nil {
		t.Fatal(err)
	}
	var specs []Spec
	for _, name := range BuiltinNames() {
		spec, err := Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec)
	}
	for _, f := range files {
		spec, err := Load(f)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec)
	}
	run := func(t *testing.T, spec Spec, keep bool) *monitor.Log {
		c, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		if keep {
			c.Log().Keep(monitor.Kinds()...)
		}
		c.Run(spec.Horizon())
		return c.Log()
	}
	for _, spec := range specs {
		t.Run(spec.Name, func(t *testing.T) {
			def, all := run(t, spec, false), run(t, spec, true)
			for _, e := range def.Events() {
				if e.Kind != monitor.KindTaskComplete {
					t.Fatalf("the default window retained %s", e)
				}
			}
			if !slices.Equal(def.ByKind(monitor.KindTaskComplete), all.ByKind(monitor.KindTaskComplete)) {
				t.Errorf("TaskDone records differ from the keep-all run's")
			}
			if !slices.Equal(def.Violations(), all.Violations()) || !slices.Equal(def.Faults(), all.Faults()) {
				t.Errorf("violations or faults differ from the keep-all run's")
			}
			if def.Dropped() != all.Dropped() {
				t.Errorf("Dropped = %d, the keep-all run's %d", def.Dropped(), all.Dropped())
			}
			for _, k := range monitor.Kinds() {
				if def.CountKind(k) != all.CountKind(k) {
					t.Errorf("CountKind(%s) = %d, the keep-all run's %d", k, def.CountKind(k), all.CountKind(k))
				}
			}
			if all.Len() <= def.Len() {
				t.Errorf("the keep-all window holds %d records, the default %d: the run recorded nothing else", all.Len(), def.Len())
			}
		})
	}
}
