package rbcast

import (
	"testing"

	"hades/internal/monitor"
	"hades/internal/netsim"
	"hades/internal/simkern"
	"hades/internal/vtime"
)

// BenchmarkSeenKeyStruct measures the seen-set bookkeeping with the
// comparable struct key.
func BenchmarkSeenKeyStruct(b *testing.B) {
	seen := make(map[copyKey]bool, 4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := copyKey{msgID: msgID{origin: i % 8, seq: uint64(i)}, node: (i + 1) % 8}
		if !seen[k] {
			seen[k] = true
		}
		if len(seen) >= 4096 {
			seen = make(map[copyKey]bool, 4096)
		}
	}
}

// BenchmarkBroadcastFlood runs full broadcasts through the engine —
// the end-to-end cost of the flooding path, where the seen-set lookup
// runs once per (message, node) hop.
func BenchmarkBroadcastFlood(b *testing.B) {
	const us = vtime.Microsecond
	eng := simkern.NewEngine(monitor.NewLog(1), 7)
	group := make([]int, 6)
	for i := range group {
		eng.AddProcessor("n", 0)
		group[i] = i
	}
	net := netsim.New(eng, netsim.Config{})
	net.ConnectAll(group, 20*us, 60*us)
	svc := New(eng, net, "bench", DefaultConfig(net, group, 2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svc.Broadcast(group[i%len(group)], int64(i))
		eng.RunUntilIdle()
	}
}
