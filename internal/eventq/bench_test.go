package eventq

import (
	"fmt"
	"math/rand"
	"testing"

	"hades/internal/vtime"
)

func BenchmarkPushPop(b *testing.B) {
	var q Queue
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Push(vtime.Time(rng.Int63n(1000000)), ClassApp, nil)
		if q.Len() > 1024 {
			for q.Len() > 0 {
				q.Pop()
			}
		}
	}
}

// BenchmarkPushRecycledPop is BenchmarkPushPop through the recycled
// door, released after each pop as the engine does after Run: the
// same heap work, no record allocated once the free list is warm. The
// queue fills to each depth and drains, so it works at half the depth
// on average; 4096 is what the data-plane workloads hold.
func BenchmarkPushRecycledPop(b *testing.B) {
	for _, depth := range []int{64, 256, 1024, 4096} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			var q Queue
			rng := rand.New(rand.NewSource(1))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q.PushRecycledTo(vtime.Time(rng.Int63n(1000000)), ClassApp, nil, 0)
				if q.Len() > depth {
					for q.Len() > 0 {
						q.Release(q.Pop())
					}
				}
			}
		})
	}
}

func BenchmarkPushCancel(b *testing.B) {
	var q Queue
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := q.Push(vtime.Time(i), ClassApp, nil)
		q.Cancel(e)
	}
}

// BenchmarkPushRecycledCancel is the processor's segment completion
// under preemption: armed through the recycled door, cancelled, and
// the dead record reclaimed when it surfaces.
func BenchmarkPushRecycledCancel(b *testing.B) {
	var q Queue
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := q.PushRecycledTo(vtime.Time(i), ClassKernel, nil, 0)
		q.CancelHandle(e)
		q.Pop()
	}
}

// BenchmarkCancelHeavyLargeHeap is the dispatcher's worst case for
// eager cancellation: a large standing heap of watchdog timers
// (deadline monitors, omission timeouts) where nearly every timer is
// cancelled — from a random heap position — before it fires. Lazy
// mark-dead cancellation makes each Cancel O(1) instead of an
// O(log n) remove-and-sift against the full heap.
func BenchmarkCancelHeavyLargeHeap(b *testing.B) {
	const batch = 4096
	var q Queue
	rng := rand.New(rand.NewSource(3))
	events := make([]*Event, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		for j := range events {
			events[j] = q.Push(vtime.Time(rng.Int63n(1<<40)), ClassDispatch, nil)
		}
		// 31 of 32 watchdogs are disarmed before firing, from random
		// positions deep in the heap; the survivors then fire in order.
		for j, e := range events {
			if j%32 != 0 {
				q.Cancel(e)
			}
		}
		for q.Len() > 0 {
			q.Pop()
		}
	}
}

func BenchmarkTimerWheelPattern(b *testing.B) {
	// The dispatcher's common pattern: push a deadline timer, usually
	// cancel it before it fires, occasionally pop.
	var q Queue
	rng := rand.New(rand.NewSource(2))
	var pending []*Event
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pending = append(pending, q.Push(vtime.Time(i+rng.Intn(100)), ClassDispatch, nil))
		if len(pending) > 64 {
			for _, e := range pending[:32] {
				q.Cancel(e)
			}
			pending = pending[32:]
			for q.Len() > 32 {
				q.Pop()
			}
		}
	}
}
