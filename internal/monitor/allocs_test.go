//go:build !race

// The allocation gate lives apart from the other tests because the race
// detector instruments allocation: under -race it would measure the
// detector, so that job does not build it (CI runs it by name in
// build-and-test, step "engine core and record door allocate nothing").

package monitor

import (
	"math/bits"
	"runtime"
	"testing"
	"unsafe"

	"hades/internal/vtime"
)

// TestAllocsLogGrowth: recording N kept events allocates the record
// chunks they fill, the text blocks their subjects and details fill,
// and the first chunk's and the chunk list's growth by append — and
// nothing else: the bytes allocated stay within 1.3x the bytes the log
// retains, so nothing the log keeps is copied again as it grows.
func TestAllocsLogGrowth(t *testing.T) {
	const n = 16*chunkLen + 100
	record := func(l *Log, n int) {
		for i := range n {
			l.Recordf(vtime.Time(i), KindMessageRecv, i%4, "port", "from=n%d id=%d lat=%s", i%4, i, vtime.Duration(i))
		}
	}
	record(NewLog(0), 100) // warm-up: what the process allocates once
	runtime.GC()
	l := NewLog(0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	record(l, n)
	runtime.ReadMemStats(&after)

	text := 0
	for _, e := range l.Events() {
		text += len(e.Subject) + len(e.Detail)
	}
	retained := uint64(l.Len())*uint64(unsafe.Sizeof(rec{})) + uint64(text)
	chunks := (n + chunkLen - 1) / chunkLen
	// The first chunk's text doubles from minText; every later chunk's
	// starts sized from the one before it, and grows at most once here,
	// where each chunk's text differs from the last by a few percent.
	blocks := bits.Len(uint(len(l.chunks[0].text)/minText)) + 1 + 2*(chunks-1)
	bound := uint64(chunks + blocks + 2*bits.Len(chunkLen) + bits.Len(uint(chunks)))
	allocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	t.Logf("%d kept events: %d allocations (bound %d), %d bytes for %d retained", n, allocs, bound, bytes, retained)
	if allocs > bound {
		t.Errorf("%d kept events: %d allocations, want at most %d", n, allocs, bound)
	}
	if float64(bytes) > 1.3*float64(retained) {
		t.Errorf("%d kept events: %d bytes allocated for %d retained (%.2fx), want at most 1.3x",
			n, bytes, retained, float64(bytes)/float64(retained))
	}
}
