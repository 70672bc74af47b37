//go:build !race

// The allocation gate lives apart from the other tests because the race
// detector instruments allocation: under -race it would measure the
// detector, so that job does not build it (CI runs it by name in
// build-and-test, step "engine core and record door allocate nothing").

package load

import (
	"testing"

	"hades/internal/eventq"
	"hades/internal/simkern"
	"hades/internal/vtime"
)

// TestAllocsOpenArrival: a warm open-loop arrival through a real
// engine, on a chain door at one slot, costs exactly its ack closure.
func TestAllocsOpenArrival(t *testing.T) {
	eng := simkern.NewEngine(nil, 1)
	g, err := New(Config{Name: "g", Mode: Open, Rate: 1000, ZipfSkew: 0.9, Seed: 1,
		Keys: keyspace(64), End: vtime.Time(100 * vtime.Second)})
	if err != nil {
		t.Fatal(err)
	}
	slot := eng.Slot()
	g.Start(Sinks{
		At:  func(at vtime.Time, fn func()) { eng.AtSlot(slot, at, eventq.ClassApp, fn) },
		Now: eng.Now,
		SubmitKV: func(_ string, _ int64, done func()) {
			eng.After(vtime.Millisecond, eventq.ClassApp, done)
		},
	})
	// The latency record grows by amortised doubling; size it up
	// front so the gate counts what one arrival allocates.
	g.lat = make([]vtime.Duration, 0, 1<<16)
	// A twin of the schedule: each step runs the engine through
	// exactly one arrival (and the acks due by then).
	next := g.newArrivals()
	step := func() {
		at, ok := next.next()
		if !ok {
			t.Fatal("schedule ran out")
		}
		eng.Run(at)
	}
	for i := 0; i < 100; i++ {
		step()
	}
	if n := testing.AllocsPerRun(200, step); n != 1 {
		t.Errorf("open-loop arrival: %v allocs, want 1 (its ack closure)", n)
	}
	if g.Stats.Offered != 301 || g.Stats.Acked < 290 {
		t.Fatalf("offered %d, acked %d after 301 arrivals", g.Stats.Offered, g.Stats.Acked)
	}
}

// keyspace names n keys.
func keyspace(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = string(rune('a'+i%26)) + string(rune('a'+i/26))
	}
	return keys
}
