package simkern

import (
	"testing"

	"hades/internal/eventq"
	"hades/internal/vtime"
)

// BenchmarkEngineDoors prices the door into the event queue and its
// closure adapter on a self-rescheduling event at a standing depth of
// 64: Arm on an eventq.Func, and After, the adapter the benchmark
// module and tests call. Both recycle the record once it fires.
func BenchmarkEngineDoors(b *testing.B) {
	run := func(b *testing.B, schedule func(eng *Engine, fn func())) {
		eng := NewEngine(nil, 1)
		left := b.N
		var fn func()
		fn = func() {
			if left--; left > 0 {
				schedule(eng, fn)
			}
		}
		for i := 0; i < 64; i++ {
			eng.After(vtime.Duration(i), eventq.ClassApp, func() {})
		}
		schedule(eng, fn)
		b.ReportAllocs()
		b.ResetTimer()
		eng.RunUntilIdle()
	}
	b.Run("After", func(b *testing.B) {
		run(b, func(eng *Engine, fn func()) { eng.After(vtime.Microsecond, eventq.ClassApp, fn) })
	})
	b.Run("Arm", func(b *testing.B) {
		run(b, func(eng *Engine, fn func()) {
			eng.Arm(eng.Now().Add(vtime.Microsecond), eventq.ClassApp, eventq.Func(fn), 0)
		})
	})
}

// BenchmarkContextSwitchStorm measures the kernel's preemption path: two
// threads alternating via priority flips.
func BenchmarkContextSwitchStorm(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := NewEngine(nil, 1)
		p := eng.AddProcessor("n0", 2*vtime.Microsecond)
		a := p.NewThread("a", 5)
		a.AddSegment(Segment{Work: vtime.Duration(1000) * vtime.Microsecond})
		a.Ready()
		c := p.NewThread("c", 4)
		c.AddSegment(Segment{Work: vtime.Duration(1000) * vtime.Microsecond})
		c.Ready()
		// 100 priority flips → 100 preemptions.
		for k := 0; k < 100; k++ {
			hi, lo := a, c
			if k%2 == 1 {
				hi, lo = c, a
			}
			kk := k
			eng.At(vtime.Time(vtime.Duration(kk+1)*5*vtime.Microsecond), 3, func() {
				hi.SetPriority(9)
				lo.SetPriority(1)
			})
		}
		eng.RunUntilIdle()
	}
}

// BenchmarkInterruptLoad measures the IRQ path under a 10 kHz source.
func BenchmarkInterruptLoad(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := NewEngine(nil, 1)
		p := eng.AddProcessor("n0", 0)
		p.StartClockTick(100*vtime.Microsecond, 5*vtime.Microsecond)
		th := p.NewThread("t", 5)
		th.AddSegment(Segment{Work: 50 * vtime.Millisecond})
		th.Ready()
		eng.Run(vtime.Time(60 * vtime.Millisecond))
	}
}

// BenchmarkThreadLifecycle measures create/ready/run/complete for short
// threads — the dispatcher's hot path.
func BenchmarkThreadLifecycle(b *testing.B) {
	eng := NewEngine(nil, 1)
	p := eng.AddProcessor("n0", 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th := p.NewThread("t", 5)
		th.AddSegment(Segment{Work: vtime.Microsecond})
		th.Ready()
		eng.RunUntilIdle()
	}
}
