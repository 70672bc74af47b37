// Package monitor implements the HADES monitoring service.
//
// The paper makes monitoring a first-class dispatcher duty (§3.2.1): the
// dispatcher observes thread execution to detect deadline violations,
// arrival-law violations, early terminations, orphan threads, deadlocks
// and network omission failures. This package provides the event log that
// records those observations, the violation records surfaced to
// applications, and the trace renderer used to regenerate Figure 2.
package monitor

import (
	"encoding/binary"
	"io"
	"slices"
	"strconv"
	"unsafe"

	"hades/internal/vtime"
)

// Kind identifies the kind of a logged event.
type Kind uint8

// Event kinds. Scheduling events mirror the paper's vocabulary
// (activation Atv, termination Trm, resource access Rac / release Rre);
// violation events mirror the monitoring list of §3.2.1.
const (
	KindActivation Kind = iota + 1
	KindThreadReady
	KindThreadStart
	KindThreadPreempt
	KindThreadResume
	KindThreadFinish
	KindTaskComplete
	KindNotification
	KindPriorityChange
	KindEarliestChange
	KindResourceGrant
	KindResourceRelease
	KindCondSet
	KindCondClear
	KindMessageSend
	KindMessageRecv
	KindMessageDrop
	KindInterrupt
	KindContextSwitch
	KindSchedulerRun

	// Violations (monitoring detections).
	KindDeadlineMiss
	KindArrivalLawViolation
	KindEarlyTermination
	KindOrphanThread
	KindDeadlock
	KindNetworkOmission
	KindLatestStartMiss

	// Service-level events.
	KindFailureInjected
	KindFailureDetected
	KindCheckpoint
	KindFailover
	KindClockSyncRound
	KindDelivery
	KindRehabilitation
	KindViewChange
	KindStateTransfer
	KindPartition
	KindQuorumBlocked
	KindMerge
	KindFlush

	// Sharded data-plane events (request routing over replication
	// groups): redirects to the owning primary, client retries,
	// queued-request resubmission after a merge view, and router
	// ownership republication on view changes.
	KindRedirect
	KindRetry
	KindResubmit
	KindRepublish

	// Transaction events (cross-shard atomic commitment): participant
	// prepares, coordinator decisions, lock-queue waits and
	// deadline/conflict aborts.
	KindPrepare
	KindDecide
	KindLockWait
	KindTxnAbort

	// Session-engine throughput events (batched, pipelined
	// submissions): batch emission, flush-policy firings (full batch or
	// flush-interval timer), and pipeline-depth stalls. KindFlush above
	// is the view-synchrony flush; these are the batcher's.
	KindBatch
	KindBatchFlush
	KindPipeline

	// Metrics-plane events: a declarative SLO rule crossing into breach
	// and clearing again (the onset/clear instants of a violation
	// window, emitted by the per-interval probe engine).
	KindSLOBreach
	KindSLOClear

	// Pub/sub data-distribution events: a crashed subscriber's backlog
	// dropped at its view eviction, and durable-history replay to a
	// late joiner or across a partition-merge view.
	KindSampleDrop
	KindCatchUp
)

// kindNames holds each kind's mnemonic at its own index.
var kindNames = [...]string{
	KindActivation:          "Atv",
	KindThreadReady:         "Ready",
	KindThreadStart:         "Start",
	KindThreadPreempt:       "Preempt",
	KindThreadResume:        "Resume",
	KindThreadFinish:        "Trm",
	KindTaskComplete:        "TaskDone",
	KindNotification:        "Notify",
	KindPriorityChange:      "SetPrio",
	KindEarliestChange:      "SetEarliest",
	KindResourceGrant:       "Rac",
	KindResourceRelease:     "Rre",
	KindCondSet:             "CondSet",
	KindCondClear:           "CondClear",
	KindMessageSend:         "Send",
	KindMessageRecv:         "Recv",
	KindMessageDrop:         "Drop",
	KindInterrupt:           "IRQ",
	KindContextSwitch:       "CtxSw",
	KindSchedulerRun:        "SchedRun",
	KindDeadlineMiss:        "DEADLINE-MISS",
	KindArrivalLawViolation: "ARRIVAL-VIOLATION",
	KindEarlyTermination:    "EARLY-TERM",
	KindOrphanThread:        "ORPHAN",
	KindDeadlock:            "DEADLOCK",
	KindNetworkOmission:     "NET-OMISSION",
	KindLatestStartMiss:     "LATEST-MISS",
	KindFailureInjected:     "FAIL-INJECT",
	KindFailureDetected:     "FAIL-DETECT",
	KindCheckpoint:          "Checkpoint",
	KindFailover:            "Failover",
	KindClockSyncRound:      "ClockSync",
	KindDelivery:            "Deliver",
	KindRehabilitation:      "Rehab",
	KindViewChange:          "ViewInstall",
	KindStateTransfer:       "StateXfer",
	KindPartition:           "Partition",
	KindQuorumBlocked:       "QuorumBlock",
	KindMerge:               "ViewMerge",
	KindFlush:               "Flush",
	KindRedirect:            "Redirect",
	KindRetry:               "Retry",
	KindResubmit:            "Resubmit",
	KindRepublish:           "Republish",
	KindPrepare:             "Prepare",
	KindDecide:              "Decide",
	KindLockWait:            "LockWait",
	KindTxnAbort:            "TxnAbort",
	KindBatch:               "Batch",
	KindBatchFlush:          "BatchFlush",
	KindPipeline:            "Pipeline",
	KindSLOBreach:           "SLO-BREACH",
	KindSLOClear:            "SLOClear",
	KindSampleDrop:          "SampleDrop",
	KindCatchUp:             "CatchUp",
}

// String returns the short mnemonic for the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "Kind(" + strconv.Itoa(int(k)) + ")"
}

// isViolation reports whether the kind records a detected property
// violation rather than a normal scheduling event.
func (k Kind) isViolation() bool {
	switch k {
	case KindDeadlineMiss, KindArrivalLawViolation, KindEarlyTermination,
		KindOrphanThread, KindDeadlock, KindNetworkOmission, KindLatestStartMiss:
		return true
	}
	return false
}

// isFault reports whether the kind belongs on a run's fault timeline:
// injected failures, detections, failovers, partitions, merges and SLO
// breach boundaries.
func (k Kind) isFault() bool {
	switch k {
	case KindFailureInjected, KindFailureDetected, KindFailover,
		KindPartition, KindMerge, KindSLOBreach, KindSLOClear:
		return true
	}
	return false
}

// Event is one record in the log.
type Event struct {
	At      vtime.Time
	Kind    Kind
	Node    int    // processor id, -1 if not node-specific
	Subject string // task/thread/resource name
	Detail  string // free-form detail
}

// String renders the event as one trace line.
func (e Event) String() string {
	var buf [128]byte
	b := appendHead(buf[:0], e.At, e.Node, e.Kind, e.Subject)
	if e.Detail != "" {
		b = append(append(append(b, " ("...), e.Detail...), ')')
	}
	return string(b)
}

// appendHead appends a trace line up to its detail: the instant
// right-aligned in 12 columns, the node, the kind left-aligned in 18,
// and the subject.
func appendHead(b []byte, at vtime.Time, node int, kind Kind, subject string) []byte {
	var buf [24]byte
	// Infinity and Forever share one bit pattern: "+inf" either way.
	t := vtime.Duration(at).Append(buf[:0])
	b = append(append(pad(append(b, '['), 12-len(t)), t...), ']')
	if node >= 0 {
		b = strconv.AppendInt(append(b, " n"...), int64(node), 10)
	}
	name := kind.String()
	b = pad(append(append(b, ' '), name...), 18-len(name))
	return append(append(b, ' '), subject...)
}

// pad appends n spaces, none if n is not positive.
func pad(b []byte, n int) []byte {
	for range n {
		b = append(b, ' ')
	}
	return b
}

// Log collects events in order. It is not safe for concurrent use: a HADES
// run is single-threaded by design (determinism), so the log needs no lock.
//
// A positive limit bounds the retained *window* to the first limit
// events. Every violation and every fault-timeline event is also kept,
// its detail rendered, on a side list the bound never touches, so
// Violations and Faults are complete however full the window is.
//
// The window holds no pointers. Each event is a 24-byte rec in a chunk
// of chunkLen; its subject and detail are bytes of the chunk's text. A
// subject the chunk already holds is not written again: the record
// points at the earlier bytes, found through a small cache that is
// cleared when a chunk opens. A detail is stored typed (encode.go): the
// index of its form, a format and the argument types of one call site,
// then each argument as a varint, eight float bytes or a string. It is
// rendered only when read, through AppendDetail, to the bytes the
// record site's format gives. Records and text are memory the collector
// never scans, and keeping an event never copies the ones kept before
// it: the first chunk doubles, so a short run holds only what it keeps,
// and every later one is allocated whole, the last of a bounded window
// only as large as the bound leaves. Text is only ever appended, so the
// Subject of an Event handed out is a substring of it that stays
// unchanged for as long as it is held; a rendered Detail shares a
// buffer of the call that read it.
type Log struct {
	chunks   []chunk // full chunks, then the open one
	n        int     // retained events
	capLimit int     // 0 = unlimited
	dropped  int
	// Never dropped, in record order.
	viol   []Event
	faults []Event
	// spill holds the rendered details of side-list events, appended
	// to like a chunk's text.
	spill []byte
	forms formTable
	// seen is the open chunk's subject cache: where in its text
	// strings it holds lie, by slotOf.
	seen [seenSlots]span
}

// rec is one retained event without its text. Its subject is
// text[subj:subj+subjLen] of its chunk; a subject of longSubj bytes or
// more is stored at subj behind its uvarint length. Its detail runs to
// end from where the later of that subject and the previous record (0
// for a chunk's first) ends.
type rec struct {
	at      vtime.Time
	node    int32
	subj    uint32
	end     uint32
	subjLen uint16
	kind    Kind
}

// chunk is a run of consecutive records and the text they own. Bytes
// below len(text) are never written again: a text that outgrows its
// capacity moves to a new array, and the old one lives on for as long
// as an Event handed out refers to it.
type chunk struct {
	recs []rec
	text []byte
}

// Storage sizes: records per chunk, the first chunk's first record
// block, and its first text block in bytes.
const (
	chunkLen = 4096
	minRecs  = 64
	minText  = 512
)

// NewLog returns an empty log. limit, when positive, bounds the window
// to the first limit events; what arrives later is counted in Dropped
// and, unless it is a violation or a fault-timeline event, discarded.
func NewLog(limit int) *Log { return &Log{capLimit: limit} }

// full reports whether the window has reached its bound.
func (l *Log) full() bool { return l.capLimit > 0 && l.n >= l.capLimit }

// side puts e on the side list its kind belongs to, if any.
func (l *Log) side(e Event) {
	switch {
	case e.Kind.isViolation():
		l.viol = append(l.viol, e)
	case e.Kind.isFault():
		l.faults = append(l.faults, e)
	}
}

// Record appends an event, copying its subject and its ready-made
// detail into the window.
func (l *Log) Record(e Event) {
	if l == nil {
		return
	}
	l.side(e)
	if l.full() {
		l.dropped++
		return
	}
	l.keep(e.At, e.Kind, e.Node, e.Subject, e.Detail, nil)
}

// keep appends a record to the window, its detail format and args
// stored as l.detail stores them, and returns the chunk it went into.
func (l *Log) keep(at vtime.Time, kind Kind, node int, subject, format string, args []any) *chunk {
	// The reservation is a guess at the stored size; a detail longer
	// than it grows the text by append.
	c := l.open(len(subject) + len(format) + 16*len(args))
	r := rec{at: at, node: int32(node), kind: kind}
	r.subj, r.subjLen = l.subject(c, subject)
	c.text = l.detail(c.text, format, args)
	r.end = uint32(len(c.text))
	c.recs = append(c.recs, r)
	l.n++
	return c
}

// subject stores s as the subject of the record c is about to keep,
// and returns the record's subj and subjLen.
func (l *Log) subject(c *chunk, s string) (uint32, uint16) {
	at := len(c.text)
	switch {
	case s == "":
	case len(s) >= longSubj:
		c.text = append(binary.AppendUvarint(c.text, uint64(len(s))), s...)
		return uint32(at), longSubj
	default:
		e, ok := l.find(c.text, s)
		if ok {
			return e.off, uint16(len(s))
		}
		c.text = append(c.text, s...)
		*e = span{off: uint32(at), n: uint32(len(s))}
	}
	return uint32(at), uint16(len(s))
}

// open returns the chunk the next record goes into, with room in its
// text for n more bytes. The first chunk's records and text double, as
// nothing is known yet of how much a run writes. A later chunk's text
// starts at what the chunk before it filled plus a sixteenth and, past
// that, grows by a quarter, so the window's text carries little unused
// capacity. The last chunk of a bounded window holds only the records
// the bound leaves, and text to match.
func (l *Log) open(n int) *chunk {
	last := len(l.chunks) - 1
	switch {
	case last < 0:
		l.chunks = append(l.chunks, chunk{})
		last = 0
	case len(l.chunks[last].recs) == chunkLen:
		recs := chunkLen
		if l.capLimit > 0 {
			recs = min(recs, l.capLimit-l.n)
		}
		prev := len(l.chunks[last].text)
		l.chunks = append(l.chunks, chunk{recs: make([]rec, 0, recs), text: make([]byte, 0, (prev+prev/16)*recs/chunkLen+n)})
		last++
		l.seen = [seenSlots]span{}
	}
	c := &l.chunks[last]
	if len(c.recs) == cap(c.recs) { // only the first chunk grows
		grown := min(max(2*cap(c.recs), minRecs), chunkLen)
		if l.capLimit > 0 {
			grown = min(grown, l.capLimit)
		}
		c.recs = append(make([]rec, 0, grown), c.recs...)
	}
	if cap(c.text)-len(c.text) < n {
		step := cap(c.text)
		if last > 0 {
			step /= 4
		}
		text := make([]byte, len(c.text), max(len(c.text)+n, cap(c.text)+step, minText))
		copy(text, c.text)
		c.text = text
	}
	return c
}

// subjectAt returns where record i's subject lies in c's text.
func (c *chunk) subjectAt(i int) (from, to int) {
	r := &c.recs[i]
	from = int(r.subj)
	if r.subjLen == longSubj {
		n, k := binary.Uvarint(c.text[from:])
		return from + k, from + k + int(n)
	}
	return from, from + int(r.subjLen)
}

// subject returns record i's subject, sharing c's text.
func (c *chunk) subject(i int) string {
	from, to := c.subjectAt(i)
	return view(c.text, from, to)
}

// detailAt returns where record i's stored detail lies in c's text:
// from the later of the previous record's end and its subject's.
func (c *chunk) detailAt(i int) (from, to int) {
	if i > 0 {
		from = int(c.recs[i-1].end)
	}
	_, subj := c.subjectAt(i)
	return max(from, subj), int(c.recs[i].end)
}

// view returns text[from:to] as a string sharing text's bytes: they
// are never written again, so the string never changes.
func view(text []byte, from, to int) string {
	if from == to {
		return ""
	}
	return unsafe.String(&text[from], to-from)
}

// reader reads a log's records back as Events. The details it renders
// share buf, which is only ever appended to; args is scratch for one
// detail's arguments.
type reader struct {
	l    *Log
	buf  []byte
	args []any
}

// event returns record i of c as an Event. Its Subject shares c's
// text, and so does its Detail when the text holds it rendered.
func (rd *reader) event(c *chunk, i int) Event {
	r := &c.recs[i]
	e := Event{At: r.at, Kind: r.kind, Node: int(r.node), Subject: c.subject(i)}
	switch from, to := c.detailAt(i); {
	case from == to:
	case c.text[from] == literal:
		e.Detail = view(c.text, from+1, to)
	default:
		start := len(rd.buf)
		rd.buf = rd.appendDetail(rd.buf, c.text[:to], from)
		e.Detail = view(rd.buf, start, len(rd.buf))
	}
	return e
}

// Keeps reports whether a record of kind made now would be kept: the
// test Recordf applies before it formats. A caller whose subject costs
// something to build asks first.
func (l *Log) Keeps(kind Kind) bool {
	return l != nil && (!l.full() || kind.isViolation() || kind.isFault())
}

// Recordf appends an event built from the arguments, storing its
// detail typed in the window's text (see Log). An event nothing would
// keep — a full window, a kind off the side lists — is counted in
// Dropped before its detail is stored, not after.
func (l *Log) Recordf(at vtime.Time, kind Kind, node int, subject, format string, args ...any) {
	if l == nil {
		return
	}
	if !l.Keeps(kind) {
		l.dropped++
		return
	}
	e := Event{At: at, Kind: kind, Node: node, Subject: subject}
	if l.full() {
		l.dropped++
	} else {
		c := l.keep(at, kind, node, subject, format, args)
		e.Subject = c.subject(len(c.recs) - 1)
	}
	if kind.isViolation() || kind.isFault() {
		from := len(l.spill)
		l.spill = AppendDetail(l.spill, format, args)
		e.Detail = view(l.spill, from, len(l.spill))
		l.side(e)
	}
}

// Len returns the number of retained events.
func (l *Log) Len() int {
	if l == nil {
		return 0
	}
	return l.n
}

// Dropped returns how many events were discarded due to the limit.
func (l *Log) Dropped() int {
	if l == nil {
		return 0
	}
	return l.dropped
}

// Events returns the retained events in chronological order. The
// returned slice is a copy; its subjects share the window's text.
func (l *Log) Events() []Event {
	if l == nil {
		return nil
	}
	out := make([]Event, 0, l.n)
	rd := reader{l: l}
	for ci := range l.chunks {
		c := &l.chunks[ci]
		for i := range c.recs {
			out = append(out, rd.event(c, i))
		}
	}
	return out
}

// ByKind returns the retained events of the given kinds, in order. The
// scan reads records in place — a full window is megabytes — and
// renders only the details of the events it returns.
func (l *Log) ByKind(kinds ...Kind) []Event {
	if l == nil {
		return nil
	}
	var want [256]bool
	for _, k := range kinds {
		want[k] = true
	}
	var out []Event
	rd := reader{l: l}
	for ci := range l.chunks {
		c := &l.chunks[ci]
		for i := range c.recs {
			if want[c.recs[i].kind] {
				out = append(out, rd.event(c, i))
			}
		}
	}
	return out
}

// Violations returns every recorded property violation, in record
// order — including those the window refused.
func (l *Log) Violations() []Event {
	if l == nil {
		return nil
	}
	return slices.Clone(l.viol)
}

// Faults returns the run's fault timeline — every recorded event whose
// kind isFault, in record order — complete like Violations.
func (l *Log) Faults() []Event {
	if l == nil {
		return nil
	}
	return slices.Clone(l.faults)
}

// CountKind returns the number of retained events of kind k.
func (l *Log) CountKind(k Kind) int {
	if l == nil {
		return 0
	}
	n := 0
	for _, c := range l.chunks {
		for i := range c.recs {
			if c.recs[i].kind == k {
				n++
			}
		}
	}
	return n
}

// WriteTrace writes every retained event to w in chronological order,
// one per line as Event.String renders it, then a note of how many the
// limit dropped. Each line is rendered into one reused buffer.
func (l *Log) WriteTrace(w io.Writer) error {
	if l == nil {
		return nil
	}
	rd := reader{l: l}
	var line []byte
	for ci := range l.chunks {
		c := &l.chunks[ci]
		for i := range c.recs {
			r := &c.recs[i]
			line = appendHead(line[:0], r.at, int(r.node), r.kind, c.subject(i))
			if from, to := c.detailAt(i); from < to {
				n := len(line)
				line = rd.appendDetail(append(line, " ("...), c.text[:to], from)
				if len(line) == n+2 {
					line = line[:n]
				} else {
					line = append(line, ')')
				}
			}
			line = append(line, '\n')
			if _, err := w.Write(line); err != nil {
				return err
			}
		}
	}
	if l.dropped > 0 {
		line = strconv.AppendInt(append(line[:0], "... "...), int64(l.dropped), 10)
		_, err := w.Write(append(line, " events dropped (log limit)\n"...))
		return err
	}
	return nil
}
