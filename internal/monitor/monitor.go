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
type Log struct {
	events   []Event
	capLimit int // 0 = unlimited
	dropped  int
	// Never dropped, in record order.
	viol   []Event
	faults []Event
}

// NewLog returns an empty log. limit, when positive, bounds the window
// to the first limit events; what arrives later is counted in Dropped
// and, unless it is a violation or a fault-timeline event, discarded.
func NewLog(limit int) *Log { return &Log{capLimit: limit} }

// full reports whether the window has reached its bound.
func (l *Log) full() bool { return l.capLimit > 0 && len(l.events) >= l.capLimit }

// Record appends an event.
func (l *Log) Record(e Event) {
	if l == nil {
		return
	}
	switch {
	case e.Kind.isViolation():
		l.viol = append(l.viol, e)
	case e.Kind.isFault():
		l.faults = append(l.faults, e)
	}
	if l.full() {
		l.dropped++
		return
	}
	l.events = append(l.events, e)
}

// Keeps reports whether a record of kind made now would be kept: the
// test Recordf applies before it formats. A caller whose subject costs
// something to build asks first.
func (l *Log) Keeps(kind Kind) bool {
	return l != nil && (!l.full() || kind.isViolation() || kind.isFault())
}

// Recordf appends an event built from the arguments. An event nothing
// would keep — a full window, a kind off the side lists — is
// counted in Dropped before its detail is formatted, not after.
func (l *Log) Recordf(at vtime.Time, kind Kind, node int, subject, format string, args ...any) {
	if l == nil {
		return
	}
	if !l.Keeps(kind) {
		l.dropped++
		return
	}
	l.Record(Event{At: at, Kind: kind, Node: node, Subject: subject, Detail: render(format, args)})
}

// Len returns the number of retained events.
func (l *Log) Len() int {
	if l == nil {
		return 0
	}
	return len(l.events)
}

// Dropped returns how many events were discarded due to the limit.
func (l *Log) Dropped() int {
	if l == nil {
		return 0
	}
	return l.dropped
}

// Events returns the retained events in chronological order. The
// returned slice is a copy.
func (l *Log) Events() []Event {
	if l == nil {
		return nil
	}
	return append(make([]Event, 0, len(l.events)), l.events...)
}

// ByKind returns the retained events of the given kinds, in order. The
// scan reads events in place — a full window is tens of megabytes.
func (l *Log) ByKind(kinds ...Kind) []Event {
	if l == nil {
		return nil
	}
	var want [256]bool
	for _, k := range kinds {
		want[k] = true
	}
	var out []Event
	for i := range l.events {
		if want[l.events[i].Kind] {
			out = append(out, l.events[i])
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

// CountKind returns the number of events of kind k.
func (l *Log) CountKind(k Kind) int {
	n := 0
	for _, e := range l.events {
		if e.Kind == k {
			n++
		}
	}
	return n
}

// WriteTrace writes every retained event to w in chronological order,
// one per line, then a note of how many the limit dropped.
func (l *Log) WriteTrace(w io.Writer) error {
	for _, e := range l.events {
		if _, err := fmt.Fprintln(w, e.String()); err != nil {
			return err
		}
	}
	if l.dropped > 0 {
		_, err := fmt.Fprintf(w, "... %d events dropped (log limit)\n", l.dropped)
		return err
	}
	return nil
}
