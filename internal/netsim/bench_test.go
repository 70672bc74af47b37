package netsim

import (
	"testing"

	"hades/internal/simkern"
	"hades/internal/vtime"
)

func BenchmarkSendReceivePath(b *testing.B) {
	eng := simkern.NewEngine(nil, 1)
	eng.AddProcessor("n0", 0)
	eng.AddProcessor("n1", 0)
	n := New(eng, DefaultConfig())
	n.Connect(0, 1, 100*vtime.Microsecond, 300*vtime.Microsecond)
	n.Bind(1, "bench", func(*Message) {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.Send(0, 1, "bench", i, 8); err != nil {
			b.Fatal(err)
		}
		eng.RunUntilIdle()
	}
}

func BenchmarkBroadcastFanout(b *testing.B) {
	eng := simkern.NewEngine(nil, 1)
	ids := make([]int, 16)
	for i := range ids {
		eng.AddProcessor("n", 0)
		ids[i] = i
	}
	n := New(eng, DefaultConfig())
	n.ConnectAll(ids, 50*vtime.Microsecond, 150*vtime.Microsecond)
	for _, id := range ids[1:] {
		n.Bind(id, "bench", func(*Message) {})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, to := range ids[1:] {
			if _, err := n.Send(0, to, "bench", i, 8); err != nil {
				b.Fatal(err)
			}
		}
		eng.RunUntilIdle()
	}
}
