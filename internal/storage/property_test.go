package storage

import (
	"testing"
	"testing/quick"

	"hades/internal/eventq"
	"hades/internal/monitor"
	"hades/internal/simkern"
	"hades/internal/vtime"
)

// Property: whatever instant the store crashes at, a previously
// committed record recovers to either its old or its new value — never
// to garbage, never lost. This is the two-copy atomicity invariant.
func TestPropertyCrashAnywhereIsAtomic(t *testing.T) {
	f := func(crashAtRaw uint16) bool {
		eng := simkern.NewEngine(monitor.NewLog(0), 3)
		eng.AddProcessor("n0", 0)
		s := New(eng, 0, 100*us)
		s.Write("k", "old", func(error) {})
		eng.RunUntilIdle() // committed at 200us

		s.Write("k", "new", func(error) {})
		// Crash anywhere in [200us, 500us): before, during, between or
		// after the two copy writes.
		offsetNs := vtime.Duration(crashAtRaw) * (300 * us) / vtime.Duration(1<<16)
		crashAt := vtime.Time(200 * us).Add(offsetNs)
		eng.At(crashAt, eventq.ClassApp, func() { s.Crash() })
		eng.RunUntilIdle()
		s.recover()
		var v string
		if err := s.Read("k", &v); err != nil {
			return false // committed record lost
		}
		return v == "old" || v == "new"
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: version monotonicity — after n sequential committed writes
// the store returns the last one.
func TestPropertySequentialWrites(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := 1 + int(nRaw%10)
		eng := simkern.NewEngine(nil, 3)
		eng.AddProcessor("n0", 0)
		s := New(eng, 0, 10*us)
		for i := 0; i < n; i++ {
			s.Write("k", i, func(error) {})
			eng.RunUntilIdle()
		}
		var v int
		if err := s.Read("k", &v); err != nil {
			return false
		}
		return v == n-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
