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
// chunks they fill, the text blocks their subjects and typed details
// fill, the first chunk's growth, the chunk list's and the one form's —
// and nothing else: the bytes allocated stay within 1.3x the bytes the
// log holds, its records and its text, so nothing the log keeps is
// copied again as it grows.
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

	held := 0
	for _, c := range l.chunks {
		held += len(c.recs)*int(unsafe.Sizeof(rec{})) + len(c.text)
	}
	chunks := (n + chunkLen - 1) / chunkLen
	// The first chunk's text doubles from minText; every later chunk's
	// starts sized from the one before it, and grows at most once here,
	// where each chunk's text differs from the last by a few percent.
	blocks := bits.Len(uint(len(l.chunks[0].text)/minText)) + 1 + 2*(chunks-1)
	bound := uint64(chunks + blocks + 2*bits.Len(chunkLen) + bits.Len(uint(chunks)))
	allocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	t.Logf("%d kept events: %d allocations (bound %d), %d bytes for %d held", n, allocs, bound, bytes, held)
	if allocs > bound {
		t.Errorf("%d kept events: %d allocations, want at most %d", n, allocs, bound)
	}
	if float64(bytes) > 1.3*float64(held) {
		t.Errorf("%d kept events: %d bytes allocated for %d held (%.2fx), want at most 1.3x",
			n, bytes, held, float64(bytes)/float64(held))
	}
}

// TestAllocsRecordfTyped: a kept Recordf passing one argument of every
// scalar type the typed detail stores costs no allocation of its own:
// its arguments stay on the caller's stack and its form is found, not
// made. The window is unbounded; the chunks and text blocks it grows
// into amortise to under one allocation per run.
func TestAllocsRecordfTyped(t *testing.T) {
	const format = "%d %d %d %d %d %d %d %d %d %d %d %g %s %s %s %q"
	l := NewLog(0)
	i := 1000
	record := func() {
		i++
		l.Recordf(vtime.Time(i), KindMessageRecv, i%4, "port", format, i, int8(i), int16(i), int32(i), int64(i),
			uint(i), uint8(i), uint16(i), uint32(i), uint64(i), uintptr(i), float64(i)/3,
			vtime.Duration(i), vtime.Time(i), "lat", "port")
	}
	record()
	if got := testing.AllocsPerRun(1000, record); got != 0 {
		t.Errorf("kept typed Recordf: %v allocations per run, want 0", got)
	}
	if len(l.forms.list) != 2 {
		t.Fatalf("%d forms: want the literal form and this call's, every argument stored typed", len(l.forms.list))
	}
}
