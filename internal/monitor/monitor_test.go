package monitor

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"hades/internal/vtime"
)

func TestRecordAndFilter(t *testing.T) {
	l := NewLog(0)
	l.Record(Event{At: 1, Kind: KindActivation, Node: 0, Subject: "t1"})
	l.Record(Event{At: 2, Kind: KindDeadlineMiss, Node: 0, Subject: "t1"})
	l.Record(Event{At: 3, Kind: KindThreadFinish, Node: 1, Subject: "t2"})
	if l.Len() != 3 {
		t.Fatalf("Len = %d", l.Len())
	}
	if got := len(l.ByKind(KindActivation, KindThreadFinish)); got != 2 {
		t.Fatalf("ByKind = %d", got)
	}
	v := l.Violations()
	if len(v) != 1 || v[0].Kind != KindDeadlineMiss {
		t.Fatalf("Violations = %v", v)
	}
	if l.CountKind(KindActivation) != 1 {
		t.Fatal("CountKind wrong")
	}
}

// TestLogLimit pins the window: the first limit events are retained,
// the tail is dropped and counted, and the trace ends with the count.
func TestLogLimit(t *testing.T) {
	l := NewLog(2)
	for i := 0; i < 5; i++ {
		l.Record(Event{At: vtime.Time(i), Kind: KindActivation})
	}
	if l.Len() != 2 || l.Dropped() != 3 {
		t.Fatalf("Len=%d Dropped=%d", l.Len(), l.Dropped())
	}
	if ev := l.Events(); ev[0].At != 0 || ev[1].At != 1 {
		t.Fatalf("retained %v, want the first two", ev)
	}
	var sb strings.Builder
	if err := l.WriteTrace(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(sb.String(), "... 3 events dropped (log limit)\n") {
		t.Fatalf("trace missing trailing drop note: %q", sb.String())
	}
}

// TestHeadLogKeepsLateViolationsAndFaults: a violation or a
// fault-timeline event that arrives after the window filled is
// refused by the window — counted in Dropped like any other — but kept
// on the side lists, so Violations and Faults stay complete.
func TestHeadLogKeepsLateViolationsAndFaults(t *testing.T) {
	l := NewLog(2)
	for i := 0; i < 3; i++ {
		l.Record(Event{At: vtime.Time(i), Kind: KindActivation})
	}
	l.Record(Event{At: 3, Kind: KindDeadlineMiss, Subject: "late"})
	l.Recordf(4, KindFailover, 1, "grp", "from=n%d", 0)
	if v := l.Violations(); len(v) != 1 || v[0].Subject != "late" {
		t.Fatalf("Violations = %v, want the miss recorded past the cap", v)
	}
	if f := l.Faults(); len(f) != 1 || f[0].Kind != KindFailover || f[0].Detail != "from=n0" {
		t.Fatalf("Faults = %v, want the failover recorded past the cap", f)
	}
	if l.Len() != 2 || l.Dropped() != 3 {
		t.Fatalf("Len=%d Dropped=%d, want 2 and 3: the window itself is unchanged", l.Len(), l.Dropped())
	}
	if ev := l.Events(); ev[0].At != 0 || ev[1].At != 1 {
		t.Fatalf("window = %v, want the first two events", ev)
	}
	// The returned slices are copies.
	l.Violations()[0].Subject = "scribbled"
	if l.Violations()[0].Subject != "late" {
		t.Fatal("Violations handed out the log's own slice")
	}
}

// TestFaultsSurviveFullWindow: the fault timeline holds a fault the
// window kept and one it refused once it was full, each once.
func TestFaultsSurviveFullWindow(t *testing.T) {
	l := NewLog(2)
	l.Record(Event{At: 1, Kind: KindFailureInjected, Subject: "crash"})
	for i := 0; i < 5; i++ {
		l.Record(Event{At: vtime.Time(10 + i), Kind: KindActivation})
	}
	l.Record(Event{At: 99, Kind: KindPartition, Subject: "net"})
	f := l.Faults()
	if len(f) != 2 || f[0].Subject != "crash" || f[1].Subject != "net" {
		t.Fatalf("Faults = %v, want the in-window crash then the refused partition", f)
	}
}

// TestFullLogKeepsViolations: violations survive any amount of window
// overflow, the one the window kept and the one it refused alike.
func TestFullLogKeepsViolations(t *testing.T) {
	l := NewLog(2)
	l.Record(Event{At: 1, Kind: KindDeadlineMiss, Subject: "early"})
	for i := 0; i < 10; i++ {
		l.Record(Event{At: vtime.Time(10 + i), Kind: KindActivation})
	}
	l.Record(Event{At: 99, Kind: KindNetworkOmission, Subject: "late"})
	v := l.Violations()
	if len(v) != 2 || v[0].Subject != "early" || v[1].Subject != "late" {
		t.Fatalf("Violations = %v, want the in-window miss plus the late omission", v)
	}
	// Nine activations and the late omission found the 2-slot window
	// full.
	if l.Dropped() != 10 {
		t.Fatalf("Dropped = %d, want 10", l.Dropped())
	}
}

// TestRecordfDetailIsSprintf: Recordf's renderer writes the bytes
// fmt.Sprintf would, for every argument type it accepts under every
// verb the record sites use, and fmt's own notes for a wrong verb, a
// missing or an extra argument. An argument outside the accepted set —
// a fmt.Stringer or an error among them, which the record site must
// render itself — shows as a visible marker instead, never as a panic.
func TestRecordfDetailIsSprintf(t *testing.T) {
	n, u := -1234567, uint64(1<<63+5)
	cases := []struct {
		format string
		args   []any
	}{
		{"plain, 100% literal", nil},
		{"%s", []any{"ready-made"}},
		{"%v|%q|%s", []any{"a b", "quote\"d\n", ""}},
		{"%d %v", []any{n, n}},
		{"%d %d %d %d %d", []any{int8(-8), int16(-300), int32(-70000), int64(n), int64(-1 << 63)}},
		{"%d %d %d %d %v %d", []any{uint(7), uint8(255), uint16(65535), uint32(1 << 31), u, uintptr(42)}},
		{"%g %g %g %g %v", []any{0.25, -1e21, 1e-7, 123456.0, 3.0}},
		{"%g %g %g", []any{math.Inf(1), math.Inf(-1), math.NaN()}},
		{"%s", []any{1500 * vtime.Microsecond}},
		{"%s %v %d", []any{-2 * vtime.Second, 999 * vtime.Nanosecond, 1500 * vtime.Microsecond}},
		{"%s %s %s", []any{vtime.Forever, 1234567 * vtime.Millisecond, vtime.Duration(-1 << 62)}},
		{"%s", []any{vtime.Time(2500)}},
		{"%s %v %d", []any{vtime.Infinity, vtime.Time(7 * vtime.Millisecond), vtime.Time(3)}},
		{"%v %d", []any{[]int{1, -2, 300}, []int{4}}},
		{"%v %v", []any{[]int(nil), []int{}}},
		{"%v %s %q", []any{[]string{"a", "b c"}, []string{"x"}, []string{"q", ""}}},
		{"%v", []any{[][]int{{0, 1}, {2}, {}}}},
		{"100%% of %d%%", []any{5}},
		{"from=n%d id=%d lat=%s", []any{3, uint64(1 << 40), 250 * vtime.Microsecond}},
		{"%s: cleared after %s (onset %s, %d intervals, worst %g)",
			[]any{"p99<5ms", 3 * vtime.Millisecond, vtime.Time(vtime.Second), 4, 7.125}},
		// Wrong verbs, missing and extra arguments: fmt's notes.
		{"%s %d %s %g", []any{42, "str", uint(9), 8 * vtime.Microsecond}},
		{"%g %s %d", []any{vtime.Time(5), []int{1}, 2.5}},
		{"%d and %s", []any{1}},
		{"%d", []any{1, "extra", 2 * vtime.Microsecond}},
		{"%v %d", []any{nil, nil}},
		{"trailing %", []any{1}},
	}
	l := NewLog(0)
	for _, c := range cases {
		l.Recordf(0, KindActivation, 0, "s", c.format, c.args...)
	}
	for i, e := range l.Events() {
		want := cases[i].format
		if len(cases[i].args) > 0 {
			want = fmt.Sprintf(cases[i].format, cases[i].args...)
		}
		if e.Detail != want {
			t.Errorf("Recordf(%q, %v): detail %q, want %q", cases[i].format, cases[i].args, e.Detail, want)
		}
	}

	l.Recordf(0, KindActivation, 0, "s", "kind=%s err=%v n=%d", KindDeadlineMiss, errors.New("boom"), 3)
	want := "kind=%!s(monitor.Kind) err=%!v(*errors.errorString) n=3"
	if ev := l.Events(); ev[len(ev)-1].Detail != want {
		t.Errorf("Stringer and error: detail %q, want %q", ev[len(ev)-1].Detail, want)
	}
}

func TestNilLogIsSafe(t *testing.T) {
	var l *Log
	l.Record(Event{})
	l.Recordf(0, KindActivation, 0, "x", "y")
	if l.Len() != 0 || l.Dropped() != 0 || l.Events() != nil || l.Violations() != nil || l.Faults() != nil ||
		l.ByKind(KindActivation) != nil || l.CountKind(KindActivation) != 0 || l.Keeps(KindDeadlineMiss) {
		t.Fatal("nil log must be inert")
	}
	var sb strings.Builder
	if err := l.WriteTrace(&sb); err != nil || sb.Len() != 0 {
		t.Fatalf("nil log wrote trace %q, err %v", sb.String(), err)
	}
	if g := l.Gantt(0, 0, 0, 10); g != "(no execution on node)\n" {
		t.Fatalf("nil log Gantt = %q", g)
	}
}

// recordMix records n events through Recordf into l and returns what a
// plain []Event holding the same records looks like. Threads on two
// nodes start, get preempted, resume and finish, so Gantt intervals
// straddle chunk boundaries. Details vary in length; one record in ten
// is a bare format and one a ready-made string, and record number long
// (none if negative) carries a detail longer than an arena block.
func recordMix(l *Log, n, long int) []Event {
	var ref []Event
	kinds := []Kind{KindThreadStart, KindMessageRecv, KindThreadPreempt, KindThreadResume, KindActivation, KindThreadFinish}
	big := strings.Repeat("x", maxBlock+100)
	for i := range n {
		at, kind, node := vtime.Time(vtime.Duration(i)*vtime.Microsecond), kinds[i%len(kinds)], (i/len(kinds))%2
		subject := fmt.Sprintf("th%d", i%7)
		var format string
		var args []any
		switch {
		case i == long:
			format, args = "big=%s!", []any{big}
		case i%10 == 3:
			format = "bare"
		case i%10 == 7:
			format, args = "%s", []any{subject}
		default:
			format, args = "from=n%d id=%d lat=%s tag=%s", []any{node, i, vtime.Duration(i), strings.Repeat("y", i%40)}
		}
		l.Recordf(at, kind, node, subject, format, args...)
		detail := format
		if len(args) > 0 {
			detail = fmt.Sprintf(format, args...)
		}
		ref = append(ref, Event{At: at, Kind: kind, Node: node, Subject: subject, Detail: detail})
	}
	return ref
}

// TestChunkedLogMatchesPlainSlice: a log recorded past two chunk
// boundaries and many arena blocks, one detail longer than a block
// among them, reads back exactly what a plain []Event holds, through
// every reader.
func TestChunkedLogMatchesPlainSlice(t *testing.T) {
	l := NewLog(0)
	ref := recordMix(l, 2*chunkLen+500, chunkLen+3)
	if len(l.chunks) != 3 || l.arena.Cap() != maxBlock {
		t.Fatalf("%d chunks, arena block %d: want 3 chunks and a %d-byte block", len(l.chunks), l.arena.Cap(), maxBlock)
	}
	if l.Len() != len(ref) || !slices.Equal(l.Events(), ref) {
		t.Fatal("Events differ from the plain slice")
	}
	kinds := []Kind{KindThreadStart, KindThreadFinish, KindActivation, KindMessageRecv, KindDeadlineMiss}
	for _, k := range kinds {
		var want []Event
		for _, e := range ref {
			if e.Kind == k {
				want = append(want, e)
			}
		}
		if got := l.ByKind(k); !slices.Equal(got, want) {
			t.Errorf("ByKind(%s): %d events, want %d", k, len(got), len(want))
		}
		if got := l.CountKind(k); got != len(want) {
			t.Errorf("CountKind(%s) = %d, want %d", k, got, len(want))
		}
	}
	if got := l.ByKind(KindThreadStart, KindThreadResume); len(got) != l.CountKind(KindThreadStart)+l.CountKind(KindThreadResume) {
		t.Errorf("ByKind of two kinds: %d events", len(got))
	}
	var got, want strings.Builder
	if err := l.WriteTrace(&got); err != nil {
		t.Fatal(err)
	}
	for _, e := range ref {
		want.WriteString(e.String() + "\n")
	}
	if got.String() != want.String() {
		t.Error("WriteTrace differs from the plain slice's lines")
	}
	plain := &Log{chunks: [][]Event{ref}, n: len(ref)}
	for node := range 2 {
		if g, w := l.Gantt(node, 0, 0, 60), plain.Gantt(node, 0, 0, 60); g != w || !strings.Contains(g, "#") {
			t.Errorf("Gantt(n%d):\n%s\nwant\n%s", node, g, w)
		}
	}
}

// TestChunkedLogLimit: a limit one past a chunk keeps exactly that many
// events, the first ones, and counts the rest in Dropped.
func TestChunkedLogLimit(t *testing.T) {
	l := NewLog(chunkLen + 1)
	ref := recordMix(l, chunkLen+40, -1)
	if l.Len() != chunkLen+1 || l.Dropped() != 39 || len(l.chunks) != 2 {
		t.Fatalf("Len=%d Dropped=%d chunks=%d, want %d, 39 and 2", l.Len(), l.Dropped(), len(l.chunks), chunkLen+1)
	}
	if !slices.Equal(l.Events(), ref[:chunkLen+1]) {
		t.Fatal("window is not the first chunkLen+1 records")
	}
}

// TestArenaDetailsNeverChange: a detail read from the log is the same
// bytes after 100k more records have filled block after block.
func TestArenaDetailsNeverChange(t *testing.T) {
	l := NewLog(0)
	l.Recordf(0, KindActivation, 0, "s", "first id=%d tag=%s", 42, "abc")
	d := l.Events()[0].Detail
	want := strings.Clone(d)
	for i := range 100_000 {
		l.Recordf(vtime.Time(i), KindMessageRecv, 1, "s", "id=%d lat=%s", i, vtime.Duration(i))
	}
	if d != want || l.Events()[0].Detail != want {
		t.Fatalf("detail %q changed to %q (log holds %q)", want, d, l.Events()[0].Detail)
	}
}

func TestEventString(t *testing.T) {
	e := Event{At: vtime.Time(1500), Kind: KindDeadlineMiss, Node: 2, Subject: "taskX", Detail: "late"}
	s := e.String()
	for _, want := range []string{"1.5us", "n2", "DEADLINE-MISS", "taskX", "late"} {
		if !strings.Contains(s, want) {
			t.Errorf("event string %q missing %q", s, want)
		}
	}
}

func TestViolationClassification(t *testing.T) {
	violations := []Kind{KindDeadlineMiss, KindArrivalLawViolation, KindEarlyTermination,
		KindOrphanThread, KindDeadlock, KindNetworkOmission, KindLatestStartMiss}
	for _, k := range violations {
		if !k.isViolation() {
			t.Errorf("%s not classified as violation", k)
		}
	}
	normals := []Kind{KindActivation, KindThreadStart, KindNotification, KindCheckpoint}
	for _, k := range normals {
		if k.isViolation() || k.isFault() {
			t.Errorf("%s wrongly classified as violation or fault", k)
		}
	}
	faults := []Kind{KindFailureInjected, KindFailureDetected, KindFailover,
		KindPartition, KindMerge, KindSLOBreach, KindSLOClear}
	for _, k := range faults {
		if !k.isFault() || k.isViolation() {
			t.Errorf("%s must be a fault-timeline kind and not a violation", k)
		}
	}
}

func TestWriteTrace(t *testing.T) {
	l := NewLog(0)
	l.Recordf(10, KindActivation, 0, "a", "")
	l.Recordf(20, KindActivation, 0, "b", "")
	l.Recordf(30, KindThreadFinish, 0, "a", "ok")
	var sb strings.Builder
	if err := l.WriteTrace(&sb); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(sb.String(), "\n"); got != 3 {
		t.Fatalf("trace lines = %d", got)
	}
}

func TestKindStringsAreUnique(t *testing.T) {
	seen := map[string]Kind{}
	for k := range kindNames {
		s := k.String()
		if prev, dup := seen[s]; dup {
			t.Errorf("kinds %d and %d share name %q", prev, k, s)
		}
		seen[s] = k
	}
}
