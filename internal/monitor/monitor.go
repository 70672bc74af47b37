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
	"fmt"
	"io"
	"slices"
	"strings"
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

var kindNames = map[Kind]string{
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
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
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

// Log collects events in order. It is not safe for concurrent use: a HADES
// run is single-threaded by design (determinism), so the log needs no lock.
//
// A positive limit bounds the retained *window* to the first limit
// events. Every violation and every fault-timeline event is also kept
// on a side list the bound never touches, so Violations and Faults are
// complete however full the window is.
//
// The window holds no pointers. Each event is a 24-byte rec in a chunk
// of chunkLen; its subject and detail are bytes of the chunk's text,
// each record's starting where the one before it ended. Records and
// text are memory the collector never scans, and keeping an event
// never copies the ones kept before it: the first chunk grows by
// append, so a short run holds only what it keeps, and every later one
// is allocated whole. Text is only ever appended, so the Subject and
// Detail of an Event handed out are substrings of it that stay
// unchanged for as long as they are held.
type Log struct {
	chunks   []chunk // full chunks, then the open one
	n        int     // retained events
	capLimit int     // 0 = unlimited
	dropped  int
	// Never dropped, in record order.
	viol   []Event
	faults []Event
	// spill holds the details of side-list events the full window
	// refused, appended to like a chunk's text.
	spill []byte
}

// rec is one retained event without its text. Its subject is
// text[start:subjEnd] of its chunk, where start is the previous
// record's end (0 for a chunk's first), and its detail is
// text[subjEnd:end].
type rec struct {
	at      vtime.Time
	node    int32
	subjEnd uint32
	end     uint32
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

// Storage sizes: records per chunk, and the first chunk's first text
// block in bytes.
const (
	chunkLen = 4096
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

// Record appends an event, copying its subject and detail into the
// window.
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

// keep appends a record to the window, its detail format rendered with
// args (see AppendDetail), and returns the chunk it went into.
func (l *Log) keep(at vtime.Time, kind Kind, node int, subject, format string, args []any) *chunk {
	// The reservation is a guess at the rendered size; a detail longer
	// than it grows the text by append.
	c := l.open(len(subject) + len(format) + 16*len(args))
	c.text = append(c.text, subject...)
	subjEnd := len(c.text)
	c.text = AppendDetail(c.text, format, args)
	c.recs = append(c.recs, rec{at: at, node: int32(node), subjEnd: uint32(subjEnd), end: uint32(len(c.text)), kind: kind})
	l.n++
	return c
}

// open returns the chunk the next record goes into, with room in its
// text for n more bytes. The first chunk's text doubles, as nothing is
// known yet of how much a run writes. A later chunk's starts at what
// the chunk before it filled plus a sixteenth and, past that, grows by a
// quarter, so the window's text carries little unused capacity.
func (l *Log) open(n int) *chunk {
	last := len(l.chunks) - 1
	switch {
	case last < 0:
		l.chunks = append(l.chunks, chunk{})
		last = 0
	case len(l.chunks[last].recs) == chunkLen:
		prev := len(l.chunks[last].text)
		l.chunks = append(l.chunks, chunk{recs: make([]rec, 0, chunkLen), text: make([]byte, 0, prev+prev/16+n)})
		last++
	}
	c := &l.chunks[last]
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

// event returns record i of c as an Event whose Subject and Detail
// share c's text.
func (c *chunk) event(i int) Event {
	r := &c.recs[i]
	start := uint32(0)
	if i > 0 {
		start = c.recs[i-1].end
	}
	return Event{At: r.at, Kind: r.kind, Node: int(r.node),
		Subject: view(c.text, int(start), int(r.subjEnd)), Detail: view(c.text, int(r.subjEnd), int(r.end))}
}

// view returns text[from:to] as a string sharing text's bytes: they
// are never written again, so the string never changes.
func view(text []byte, from, to int) string {
	if from == to {
		return ""
	}
	return unsafe.String(&text[from], to-from)
}

// Keeps reports whether a record of kind made now would be kept: the
// test Recordf applies before it formats. A caller whose subject costs
// something to build asks first.
func (l *Log) Keeps(kind Kind) bool {
	return l != nil && (!l.full() || kind.isViolation() || kind.isFault())
}

// Recordf appends an event built from the arguments, rendering its
// detail straight into the window's text. An event nothing would keep
// — a full window, a kind off the side lists — is counted in Dropped
// before its detail is formatted, not after.
func (l *Log) Recordf(at vtime.Time, kind Kind, node int, subject, format string, args ...any) {
	if l == nil {
		return
	}
	if !l.Keeps(kind) {
		l.dropped++
		return
	}
	if l.full() {
		l.dropped++
		from := len(l.spill)
		l.spill = AppendDetail(l.spill, format, args)
		l.side(Event{At: at, Kind: kind, Node: node, Subject: subject, Detail: view(l.spill, from, len(l.spill))})
		return
	}
	c := l.keep(at, kind, node, subject, format, args)
	if kind.isViolation() || kind.isFault() {
		l.side(c.event(len(c.recs) - 1))
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
// returned slice is a copy; its strings share the window's text.
func (l *Log) Events() []Event {
	if l == nil {
		return nil
	}
	out := make([]Event, 0, l.n)
	for _, c := range l.chunks {
		for i := range c.recs {
			out = append(out, c.event(i))
		}
	}
	return out
}

// ByKind returns the retained events of the given kinds, in order. The
// scan reads records in place — a full window is megabytes.
func (l *Log) ByKind(kinds ...Kind) []Event {
	if l == nil {
		return nil
	}
	var want [256]bool
	for _, k := range kinds {
		want[k] = true
	}
	var out []Event
	for _, c := range l.chunks {
		for i := range c.recs {
			if want[c.recs[i].kind] {
				out = append(out, c.event(i))
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
// one per line, then a note of how many the limit dropped.
func (l *Log) WriteTrace(w io.Writer) error {
	if l == nil {
		return nil
	}
	for _, c := range l.chunks {
		for i := range c.recs {
			if _, err := fmt.Fprintln(w, c.event(i).String()); err != nil {
				return err
			}
		}
	}
	if l.dropped > 0 {
		_, err := fmt.Fprintf(w, "... %d events dropped (log limit)\n", l.dropped)
		return err
	}
	return nil
}
