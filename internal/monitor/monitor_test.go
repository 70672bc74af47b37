package monitor

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"unsafe"

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
	l.Keep(KindTaskComplete)
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

// op is one record offered to a log: e is the event the log must hand
// back, made through Record when direct and otherwise through Recordf
// with format and args.
type op struct {
	e      Event
	format string
	args   []any
	direct bool
}

func (o op) apply(l *Log) {
	if o.direct {
		l.Record(o.e)
		return
	}
	l.Recordf(o.e.At, o.e.Kind, o.e.Node, o.e.Subject, o.format, o.args...)
}

// mixOps draws n seeded records: every Kind in turn and then at random,
// half of them the thread kinds Gantt reads; nodes from -1 to 1<<20;
// subjects built afresh from a recurring pool that holds two pairs
// sharing a subject-cache slot, one pair of equal length, with empty
// ones among them, and at huge+1 and huge+2 subjects of 64 KiB and
// more. Details are bare formats, one with a literal '%'; every
// argument type the typed detail stores, each integer width and
// uintptr, float64, Duration and Time, and strings under %s, %q and %v,
// the record's own subject and the colliding pairs among them; each
// fallback — slices, a nil, an unknown type, a type switch left
// half-way, more than maxArgs arguments — and missing and extra
// arguments, wrong verbs and %%; 200 formats, past the one-byte form
// indices; events made whole through Record; and at index huge (none
// if negative) a detail longer than 64 KiB. Each record's Detail is
// its eager render.
func mixOps(seed int64, n, huge int) []op {
	rng := rand.New(rand.NewSource(seed))
	nodes := []int{-1, 0, 1, 3, 1 << 20}
	threads := []Kind{KindThreadStart, KindThreadPreempt, KindThreadResume, KindThreadFinish}
	sameLen, otherLen := collidingSubjects()
	pool := []string{"th0", "th1", "th2", "th3", "th4", "th5", "th6", "", "shard3.req",
		sameLen[0], sameLen[1], otherLen[0], otherLen[1], "quote\"d\n", "h\u00e9llo, w\u00f6rld"}
	forms := make([]string, 200)
	for k := range forms {
		forms[k] = fmt.Sprintf("k%03d=%%d v=%%s", k)
	}
	// A word is a pool string as it is, or its bytes at an address of
	// their own.
	word := func() string {
		w := pool[rng.Intn(len(pool))]
		if rng.Intn(2) == 0 {
			w = strings.Clone(w)
		}
		return w
	}
	var many [maxArgs + 1]any
	for k := range many {
		many[k] = k
	}
	ops := make([]op, n)
	for i := range ops {
		kind := Kind(i%int(KindCatchUp) + 1)
		if i >= int(KindCatchUp) {
			kind = Kind(rng.Intn(int(KindCatchUp)) + 1)
			if rng.Intn(2) == 0 {
				kind = threads[rng.Intn(len(threads))]
			}
		}
		o := op{e: Event{At: vtime.Time(vtime.Duration(i) * vtime.Microsecond), Kind: kind, Node: nodes[rng.Intn(len(nodes))]}}
		switch {
		case huge >= 0 && i == huge+1:
			o.e.Subject = strings.Repeat("S", 64<<10+7)
		case huge >= 0 && i == huge+2:
			o.e.Subject = strings.Repeat("T", longSubj)
		case rng.Intn(4) > 0:
			o.e.Subject = fmt.Sprintf("th%d", rng.Intn(7))
		default:
			o.e.Subject = word()
		}
		u := rng.Uint64()
		switch r := rng.Intn(12); {
		case i == huge:
			o.format, o.args = "big=%s!", []any{strings.Repeat("x", 64<<10+100)}
		case r == 0:
			o.format = ""
		case r == 1:
			o.format = "bare, 100% literal"
		case r == 2:
			o.format, o.args = "%s", []any{strings.Repeat("s", rng.Intn(20))}
		case r == 3:
			o.direct, o.e.Detail = true, strings.Repeat("d", rng.Intn(50))
		case r == 4:
			o.format, o.args = "from=n%d id=%d lat=%s tag=%q", []any{o.e.Node, uint64(i), vtime.Duration(rng.Int63n(1e12)), strings.Repeat("y", rng.Intn(40))}
		case r == 5:
			o.format = "i=%d i8=%d i16=%d i32=%d i64=%v u=%d u8=%d u16=%d u32=%d u64=%v up=%d"
			if rng.Intn(2) == 0 { // wrong verbs: fmt's notes name each type
				o.format = "%s %s %q %s %x %s %s %q %s %x %s %d %d %x %d"
			}
			o.args = []any{int(u), int8(u), int16(u), int32(u), int64(u), uint(u), uint8(u), uint16(u), uint32(u), u, uintptr(u),
				"s", float64(u), vtime.Duration(u), vtime.Time(u)}
		case r == 6:
			f := [...]float64{rng.NormFloat64() * 1e6, math.NaN(), math.Inf(-1), math.Copysign(0, -1), 1e-300, 0.1}[rng.Intn(6)]
			d := [...]vtime.Duration{vtime.Duration(u), vtime.Duration(rng.Int63n(1e9)), vtime.Forever, -vtime.Duration(rng.Int63n(1e6))}[rng.Intn(4)]
			at := [...]vtime.Time{vtime.Time(rng.Int63n(1e12)), vtime.Infinity, vtime.Time(u)}[rng.Intn(3)]
			o.format, o.args = "%g %v d=%s %v %d t=%s %d", []any{f, f, d, d, d, at, at}
		case r == 7:
			o.format, o.args = "%s|%q|%v|%s", []any{word(), word(), word(), strings.Clone(o.e.Subject)}
		case r == 8:
			fallbacks := [][]any{{[]int{1, -2}, 3}, {[]string{"a", word()}}, {[][]int{{1}, {}}}, {nil, 4}, {KindDeadlock, "x"},
				{word(), nil}, {word(), uint8(3), []int(nil)}, many[:]}
			o.format, o.args = "%v %d %s", fallbacks[rng.Intn(len(fallbacks))]
			if len(o.args) > 3 {
				o.format = strings.Repeat("%d,", len(o.args))
			}
		case r == 9:
			notes := [...]struct {
				format string
				args   []any
			}{{"%d and %s", []any{i}}, {"%d", []any{i, word(), vtime.Duration(u)}}, {"100%% of %d%%", []any{i}},
				{"%s %d %g %q", []any{i, word(), vtime.Duration(i), 2.5}}, {"trailing %", []any{i}}}
			k := rng.Intn(len(notes))
			o.format, o.args = notes[k].format, notes[k].args
		default:
			o.format, o.args = forms[rng.Intn(len(forms))], []any{int(u >> 40), word()}
		}
		if !o.direct {
			o.e.Detail = string(AppendDetail(nil, o.format, o.args))
		}
		ops[i] = o
	}
	return ops
}

// collidingSubjects returns two strings of one length that share a
// subject-cache slot, and two of different lengths that share one — as
// these very strings: a copy lies elsewhere and may hash elsewhere.
func collidingSubjects() (sameLen, otherLen [2]string) {
	bySlot := map[uint8]string{}
	for k := 0; sameLen[1] == ""; k++ {
		s := fmt.Sprintf("sub%04d", k)
		if prev, ok := bySlot[slotOf(s)]; ok {
			sameLen = [2]string{prev, s}
		}
		bySlot[slotOf(s)] = s
	}
	for k := 0; otherLen[1] == ""; k++ {
		if s := fmt.Sprintf("other-subject-%d", k); slotOf(s) == slotOf(sameLen[0]) {
			otherLen = [2]string{sameLen[0], s}
		}
	}
	return sameLen, otherLen
}

// plainLog is the reference the chunked log is held against: a window
// in a plain []Event and side lists, kept the obvious way.
type plainLog struct {
	limit        int
	events       []Event
	viol, faults []Event
	dropped      int
}

func (p *plainLog) record(e Event) {
	switch {
	case e.Kind.isViolation():
		p.viol = append(p.viol, e)
	case e.Kind.isFault():
		p.faults = append(p.faults, e)
	}
	if p.limit > 0 && len(p.events) >= p.limit {
		p.dropped++
		return
	}
	p.events = append(p.events, e)
}

// intervals reconstructs a node's execution intervals from the
// reference window, sorted by start.
func (p *plainLog) intervals(node int) []interval {
	running := map[string]vtime.Time{}
	var out []interval
	for _, e := range p.events {
		if e.Node != node {
			continue
		}
		since, on := running[e.Subject]
		switch e.Kind {
		case KindThreadStart, KindThreadResume:
			if !on {
				running[e.Subject] = e.At
			}
		case KindThreadPreempt, KindThreadFinish:
			if on {
				delete(running, e.Subject)
				if e.At > since {
					out = append(out, interval{thread: e.Subject, from: since, to: e.At})
				}
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].from < out[j].from })
	return out
}

// cloneEvents copies events with strings of their own.
func cloneEvents(events []Event) []Event {
	out := slices.Clone(events)
	for i := range out {
		out[i].Subject, out[i].Detail = strings.Clone(out[i].Subject), strings.Clone(out[i].Detail)
	}
	return out
}

// TestChunkedLogMatchesPlainSlice: seeded streams of records, past
// three chunk boundaries with a detail longer than 64 KiB among them,
// read back through every reader exactly what a plain []Event holds —
// in an unbounded window and in one that fills a record past its first
// chunk and then refuses some 12k records, keeping the violations and
// faults among them on the side lists. Events, violations and faults
// handed out in the second chunk are the same bytes after 10k more
// records.
func TestChunkedLogMatchesPlainSlice(t *testing.T) {
	const n, early = 4 * chunkLen, chunkLen + 500
	for seed := int64(1); seed <= 3; seed++ {
		ops := mixOps(seed, n, chunkLen+3)
		for _, limit := range []int{0, chunkLen + 1} {
			l, ref := NewLog(limit), &plainLog{limit: limit}
			var handed [3][]Event
			var want [3][]Event
			for i, o := range ops {
				o.apply(l)
				ref.record(o.e)
				if i == early {
					handed = [3][]Event{l.Events(), l.Violations(), l.Faults()}
					for k := range handed {
						want[k] = cloneEvents(handed[k])
					}
				}
			}
			name := fmt.Sprintf("seed %d, limit %d", seed, limit)
			for k := range handed {
				if !slices.Equal(handed[k], want[k]) {
					t.Errorf("%s: events handed out after %d records changed as %d more were kept", name, early, n-early-1)
				}
			}
			if l.Len() != len(ref.events) || l.Dropped() != ref.dropped {
				t.Errorf("%s: Len=%d Dropped=%d, want %d and %d", name, l.Len(), l.Dropped(), len(ref.events), ref.dropped)
			}
			if !slices.Equal(l.Events(), ref.events) {
				t.Errorf("%s: Events differ from the plain slice", name)
			}
			if !slices.Equal(l.Violations(), ref.viol) || !slices.Equal(l.Faults(), ref.faults) {
				t.Errorf("%s: side lists differ: %d violations and %d faults, want %d and %d",
					name, len(l.Violations()), len(l.Faults()), len(ref.viol), len(ref.faults))
			}
			for k := KindActivation; k <= KindCatchUp; k++ {
				var want []Event
				for _, e := range ref.events {
					if e.Kind == k {
						want = append(want, e)
					}
				}
				if got := l.ByKind(k); !slices.Equal(got, want) {
					t.Errorf("%s: ByKind(%s): %d events, want %d", name, k, len(got), len(want))
				}
				if got := l.CountKind(k); got != len(want) {
					t.Errorf("%s: CountKind(%s) = %d, want %d", name, k, got, len(want))
				}
			}
			var two []Event
			for _, e := range ref.events {
				if e.Kind == KindThreadStart || e.Kind == KindDeadlineMiss {
					two = append(two, e)
				}
			}
			if got := l.ByKind(KindDeadlineMiss, KindThreadStart); !slices.Equal(got, two) {
				t.Errorf("%s: ByKind of two kinds: %d events, want %d", name, len(got), len(two))
			}
			var got, trace strings.Builder
			if err := l.WriteTrace(&got); err != nil {
				t.Fatal(err)
			}
			for _, e := range ref.events {
				trace.WriteString(sprintEvent(e) + "\n")
			}
			if ref.dropped > 0 {
				fmt.Fprintf(&trace, "... %d events dropped (log limit)\n", ref.dropped)
			}
			if got.String() != trace.String() {
				t.Errorf("%s: WriteTrace differs from the plain slice's lines", name)
			}
			for _, node := range []int{-1, 0, 1 << 20} {
				iv := ref.intervals(node)
				if !slices.Equal(l.intervals(node), iv) {
					t.Errorf("%s: node %d: %d intervals, want %d", name, node, len(l.intervals(node)), len(iv))
				}
				if g, w := l.Gantt(node, 0, 0, 60), chart(iv, node, 0, 0, 60); g != w || !strings.Contains(g, "#") {
					t.Errorf("%s: Gantt(n%d):\n%s\nwant\n%s", name, node, g, w)
				}
			}
		}
	}
}

// TestFormTableFull: once the form table holds maxForms forms, a
// detail of a new form is stored rendered, and the forms it already
// holds are still stored typed; every detail reads back as its eager
// render.
func TestFormTableFull(t *testing.T) {
	l := NewLog(0)
	var want []string
	record := func(format string, args ...any) {
		l.Recordf(0, KindActivation, 0, "s", format, args...)
		want = append(want, string(AppendDetail(nil, format, args)))
	}
	for k := range maxForms + 10 {
		record(fmt.Sprintf("f%d=%%d %%s", k), k, "v")
	}
	record("from=n%d lat=%s", 1, vtime.Duration(2500))
	if len(l.forms.list) != maxForms {
		t.Fatalf("%d forms, want the table full at %d", len(l.forms.list), maxForms)
	}
	record("f7=%d %s", 8, "w") // a form the table holds, with a format built afresh
	c := &l.chunks[len(l.chunks)-1]
	last := len(c.recs) - 1
	if from, _ := c.detailAt(last); c.text[from] == literal {
		t.Errorf("a form the full table holds was stored rendered")
	}
	if from, _ := c.detailAt(last - 1); c.text[from] != literal {
		t.Errorf("a form the full table lacks was stored typed")
	}
	for i, e := range l.Events() {
		if e.Detail != want[i] {
			t.Fatalf("event %d: detail %q, want %q", i, e.Detail, want[i])
		}
	}
}

// TestChunkedLogLimit: a limit one past a chunk keeps exactly that many
// events, the first ones, and counts the rest in Dropped.
func TestChunkedLogLimit(t *testing.T) {
	l := NewLog(chunkLen + 1)
	ops := mixOps(1, chunkLen+40, -1)
	for _, o := range ops {
		o.apply(l)
	}
	if l.Len() != chunkLen+1 || l.Dropped() != 39 || len(l.chunks) != 2 {
		t.Fatalf("Len=%d Dropped=%d chunks=%d, want %d, 39 and 2", l.Len(), l.Dropped(), len(l.chunks), chunkLen+1)
	}
	for i, e := range l.Events() {
		if e != ops[i].e {
			t.Fatalf("event %d = %v, want %v: the window is not the first chunkLen+1 records", i, e, ops[i].e)
		}
	}
}

// TestBoundedWindowHoldsItsLimit: a full bounded window has room for
// exactly its limit of records — the first chunk grows no further than
// the limit, the last holds only what the limit leaves — and the last
// chunk's text is sized to its share of records.
func TestBoundedWindowHoldsItsLimit(t *testing.T) {
	for _, limit := range []int{1, 100, chunkLen, chunkLen + 1, 2*chunkLen + 288} {
		l := NewLog(limit)
		for _, o := range mixOps(1, limit+50, -1) {
			o.apply(l)
		}
		room := 0
		for _, c := range l.chunks {
			room += cap(c.recs)
		}
		if l.Len() != limit || room != limit {
			t.Errorf("limit %d: %d events kept in room for %d records, want both %d", limit, l.Len(), room, limit)
		}
	}
	l := NewLog(2*chunkLen + 288)
	for _, o := range mixOps(2, 2*chunkLen+288, -1) {
		o.apply(l)
	}
	if last, prev := cap(l.chunks[2].text), cap(l.chunks[1].text); last > prev/4 {
		t.Errorf("a 288-record last chunk has %d bytes of text room, a full chunk %d: want under a quarter", last, prev)
	}
}

// TestMonitorRecordIsPointerFree: a retained record is 24 bytes and
// holds nothing the collector would trace, so the window's chunks are
// memory it never scans.
func TestMonitorRecordIsPointerFree(t *testing.T) {
	if n := unsafe.Sizeof(rec{}); n != 24 {
		t.Fatalf("rec is %d bytes, want 24", n)
	}
	var walk func(reflect.Type, string)
	walk = func(ty reflect.Type, path string) {
		switch ty.Kind() {
		case reflect.Struct:
			for i := range ty.NumField() {
				f := ty.Field(i)
				walk(f.Type, path+"."+f.Name)
			}
		case reflect.Array:
			walk(ty.Elem(), path+"[]")
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.String,
			reflect.Map, reflect.Chan, reflect.Func, reflect.Interface:
			t.Errorf("%s is a %s: rec must hold no pointer", path, ty.Kind())
		}
	}
	walk(reflect.TypeOf(rec{}), "rec")
}

// sprintEvent is the trace line of e as fmt builds it: the reference
// Event.String and WriteTrace are held to.
func sprintEvent(e Event) string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%12s]", e.At)
	if e.Node >= 0 {
		fmt.Fprintf(&b, " n%d", e.Node)
	}
	fmt.Fprintf(&b, " %-18s %s", e.Kind, e.Subject)
	if e.Detail != "" {
		fmt.Fprintf(&b, " (%s)", e.Detail)
	}
	return b.String()
}

func TestEventString(t *testing.T) {
	e := Event{At: vtime.Time(1500), Kind: KindDeadlineMiss, Node: 2, Subject: "taskX", Detail: "late"}
	s := e.String()
	for _, want := range []string{"1.5us", "n2", "DEADLINE-MISS", "taskX", "late"} {
		if !strings.Contains(s, want) {
			t.Errorf("event string %q missing %q", s, want)
		}
	}
	for _, e := range []Event{e, {}, {At: vtime.Infinity, Kind: KindCatchUp + 1, Node: -1, Subject: "s"},
		{At: vtime.Time(-1 << 62), Kind: KindArrivalLawViolation, Node: 1 << 20, Subject: strings.Repeat("x", 200), Detail: "d"},
		{At: vtime.Time(123456789012), Kind: KindThreadStart, Detail: "(nested)"}} {
		if got, want := e.String(), sprintEvent(e); got != want {
			t.Errorf("Event.String = %q, want %q", got, want)
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
	for k := KindActivation; k <= KindCatchUp; k++ {
		s := k.String()
		if prev, dup := seen[s]; dup || strings.HasPrefix(s, "Kind(") {
			t.Errorf("kinds %d and %d share name %q, or %d has none", prev, k, s, k)
		}
		seen[s] = k
	}
	if len(kindNames) != int(KindCatchUp)+1 {
		t.Errorf("%d kind names for %d kinds", len(kindNames)-1, KindCatchUp)
	}
	for _, k := range []Kind{0, KindCatchUp + 1, 255} {
		if got, want := k.String(), fmt.Sprintf("Kind(%d)", uint8(k)); got != want {
			t.Errorf("unnamed kind: %q, want %q", got, want)
		}
	}
}

// TestKeepRetainsOnlyItsKinds: a log that keeps a few kinds holds, of
// the same records, exactly what a log keeping every kind holds of
// those kinds, and reads the same everywhere else: the bound counts
// every record made, so Dropped, the side lists and CountKind are the
// keep-all log's, at every limit.
func TestKeepRetainsOnlyItsKinds(t *testing.T) {
	kept := []Kind{KindTaskComplete, KindThreadStart, KindDeadlineMiss}
	for _, limit := range []int{0, 1, 100, chunkLen + 1, 2*chunkLen + 288} {
		all, some := NewLog(limit), NewLog(limit)
		some.Keep(kept...)
		ops := mixOps(3, 2*chunkLen+400, -1)
		for _, o := range ops {
			o.apply(all)
			o.apply(some)
		}
		want := all.ByKind(kept...)
		if got := some.Events(); !slices.Equal(got, want) {
			t.Fatalf("limit %d: window holds %d events, want the keep-all window's %d of the kept kinds", limit, len(got), len(want))
		}
		if some.Len() != len(want) || some.Dropped() != all.Dropped() {
			t.Errorf("limit %d: Len=%d Dropped=%d, want %d and %d", limit, some.Len(), some.Dropped(), len(want), all.Dropped())
		}
		if !slices.Equal(some.Violations(), all.Violations()) || !slices.Equal(some.Faults(), all.Faults()) {
			t.Errorf("limit %d: the side lists differ from the keep-all log's", limit)
		}
		for _, k := range Kinds() {
			if some.CountKind(k) != all.CountKind(k) {
				t.Errorf("limit %d: CountKind(%s) = %d, want %d", limit, k, some.CountKind(k), all.CountKind(k))
			}
		}
	}
}

// TestKeepsAnswersPerKind: Keeps says yes to a kept kind while the
// window has room, and to a violation or a fault whatever the set, so
// a lazy subject is built only for a record something keeps.
func TestKeepsAnswersPerKind(t *testing.T) {
	l := NewLog(1)
	l.Keep(KindTaskComplete)
	for _, tc := range []struct {
		kind Kind
		want bool
	}{
		{KindTaskComplete, true}, {KindNotification, false}, {KindThreadStart, false},
		{KindDeadlineMiss, true}, {KindFailover, true},
	} {
		if got := l.Keeps(tc.kind); got != tc.want {
			t.Errorf("Keeps(%s) = %v, want %v", tc.kind, got, tc.want)
		}
	}
	l.Recordf(0, KindNotification, 0, "", "") // fills the bound, kept or not
	if l.Keeps(KindTaskComplete) || !l.Keeps(KindDeadlineMiss) || l.Len() != 0 || l.CountKind(KindNotification) != 1 {
		t.Fatalf("full window: Keeps(TaskDone)=%v Keeps(DEADLINE-MISS)=%v Len=%d, want false, true, 0",
			l.Keeps(KindTaskComplete), l.Keeps(KindDeadlineMiss), l.Len())
	}
}

// TestKeepAfterFirstRecordPanics: the keep set is a reader's request
// made before the run; asking once records exist would leave a window
// that holds some of a kind and not the rest.
func TestKeepAfterFirstRecordPanics(t *testing.T) {
	l := NewLog(0)
	l.Keep(KindTaskComplete) // before any record: fine, and again
	l.Keep(Kinds()...)
	l.Recordf(0, KindNotification, 0, "", "")
	defer func() {
		if recover() == nil {
			t.Fatal("Keep after the first record did not panic")
		}
	}()
	l.Keep(KindTaskComplete)
}
