package dispatcher

import (
	"fmt"
	"testing"
	"unsafe"

	"hades/internal/heug"
	"hades/internal/monitor"
	"hades/internal/simkern"
	"hades/internal/vtime"
)

// An instance's storage is never handed to a later instance: an
// *Instance that Activate returned, and its Threads, still report their
// own seq, names and states after thousands of later activations of
// the same task, for a task that fits an instance block and for one
// that does not.
func TestInstanceNeverReused(t *testing.T) {
	for _, units := range []int{inlineUnits, inlineUnits + 2} {
		t.Run(fmt.Sprintf("units=%d", units), func(t *testing.T) {
			eng := simkern.NewEngine(monitor.NewLog(1), 1)
			eng.AddProcessor("n0", 0)
			d := New(eng, nil, DefaultCostBook())
			app := d.RegisterApp("rt", passive{}, nil)
			b := heug.NewTask("t", heug.AperiodicLaw()).WithDeadline(vtime.Millisecond)
			for i := 0; i < units; i++ {
				b.Code(fmt.Sprintf("u%d", i), heug.CodeEU{Node: 0, WCET: 10 * vtime.Microsecond})
				if i > 0 {
					b.Precede(fmt.Sprintf("u%d", i-1), fmt.Sprintf("u%d", i))
				}
			}
			if _, err := app.AddTask(b.MustBuild()); err != nil {
				t.Fatal(err)
			}
			app.Seal()
			first, err := d.Activate("t")
			if err != nil {
				t.Fatal(err)
			}
			eng.Run(eng.Now().Add(vtime.Millisecond))
			done := first.CompletedAt
			seen := map[*Thread]bool{}
			for _, th := range first.Threads {
				seen[th] = true
			}
			for i := 0; i < 5000; i++ {
				inst, err := d.Activate("t")
				if err != nil {
					t.Fatal(err)
				}
				for _, th := range inst.Threads {
					if seen[th] {
						t.Fatalf("activation %d holds a thread of the first instance", i+2)
					}
				}
				eng.Run(eng.Now().Add(vtime.Millisecond))
			}
			if first.Seq != 1 || first.name != "t#1" || !first.completed || first.CompletedAt != done {
				t.Fatalf("first instance now reads seq %d, name %q, completed %v at %s (was at %s)",
					first.Seq, first.name, first.completed, first.CompletedAt, done)
			}
			if len(first.Threads) != units {
				t.Fatalf("first instance has %d threads, want %d", len(first.Threads), units)
			}
			for i, th := range first.Threads {
				if want := fmt.Sprintf("t#1.u%d", i); th.name != want || th.Instance() != first ||
					!th.Finished() || !th.Started() || th.EU() != first.TR.Task.EUs[i] {
					t.Fatalf("unit %d reads name %q, state %s, started %v; want %q, done, started, of the first instance",
						i, th.name, th.state, th.Started(), want)
				}
			}
			if st := d.Stats(); st.Completions != 5001 {
				t.Fatalf("%d of 5001 instances completed", st.Completions)
			}
		})
	}
}

// An instance block of inlineUnits units fits the allocator's
// 1536-byte size class; a field more would round it up to 1792.
func TestInstanceBlockSize(t *testing.T) {
	if n := unsafe.Sizeof(instanceBlock{}); n > 1536 {
		t.Fatalf("instanceBlock is %d bytes, want at most 1536", n)
	}
}
