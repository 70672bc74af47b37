// Package netsim simulates the communication substrate of the HADES
// testbed (an ATM network of workstations).
//
// The paper models all communication as an independent task NetMsg that
// "uses a set of resources (embedded CPUs of the involved network cards,
// network hardware, DMAs, CPUs) and controls concurrent accesses to the
// network hardware" (§3.1). This package reproduces that shape:
//
//   - links have bounded transmission delay [DMin, DMax] and deliver in
//     FIFO order (per directed link), the synchrony assumption every
//     time-bounded service relies on;
//   - message receipt raises the ATM card interrupt (the w_atm kernel
//     activity of §4.2), then runs a protocol thread (the NetMsg task)
//     at a configurable priority before handing the message to the bound
//     handler;
//   - omission and performance (late-delivery) failures are injected via
//     a deterministic, seeded fault hook, matching the §2.1 failure model;
//   - network partitions (SetPartition/Heal) split the nodes into sides
//     whose cross-side traffic — including copies already in flight — is
//     dropped until the partition heals: the link-loss/segmentation
//     fault class that dominates real deployments.
//
// Sender-side CPU cost (C_trans_data) is deliberately *not* charged here:
// per §4.1 it is a dispatcher activity, charged by the dispatcher (or
// included in a service task's WCET).
//
// Each message in flight is one recycled record holding the Message by
// value, its receiver and the NetMsg thread (reinitialised in place,
// named only if a kept record reads its name). The record owns every
// stage of the receive path: its arrival event and its ATM interrupt
// fire it with the stage as the payload. It returns to the network's
// free list when the handler returns or the message is dropped, so a
// steady-state hop allocates nothing. The contract this puts on a
// handler: the *Message it receives lives only for the call. Send
// returns the message id, not the message; a handler copies what it
// keeps.
package netsim

import (
	"errors"
	"fmt"
	"strconv"

	"hades/internal/eventq"
	"hades/internal/monitor"
	"hades/internal/simkern"
	"hades/internal/trace"
	"hades/internal/vtime"
)

// Fate is a fault hook's decision about one message.
type Fate uint8

// Fates a message can meet.
const (
	// FateDeliver delivers within the link's bounds (no fault).
	FateDeliver Fate = iota + 1
	// FateDrop drops the message: an omission failure.
	FateDrop
	// FateDelay delivers late by Extra beyond the sampled delay: a
	// performance failure.
	FateDelay
)

// Verdict is the full decision of a fault hook.
type Verdict struct {
	Fate  Fate
	Extra vtime.Duration // only for FateDelay
}

// FaultHook decides the fate of each message. Implementations must be
// deterministic given the engine's seeded random source.
type FaultHook interface {
	Judge(m *Message) Verdict
}

// Message is one datagram crossing the network.
type Message struct {
	ID      uint64
	From    int // sender processor ID
	To      int // receiver processor ID
	Port    string
	Payload any
	Size    int // bytes, informational

	SentAt      vtime.Time
	DeliveredAt vtime.Time // set on delivery
}

// Config holds the NetMsg receive-path parameters.
type Config struct {
	// WAtm is the ATM card interrupt handler WCET (w_atm, §4.2).
	WAtm vtime.Duration
	// WProto is the protocol (NetMsg task) processing WCET per message.
	WProto vtime.Duration
	// PrioNet is the priority at which the NetMsg protocol task runs —
	// the paper notes this is a parameter of the communication protocol.
	PrioNet int
}

// DefaultConfig mirrors the magnitude of the paper's testbed: a 25 µs
// interrupt handler and 35 µs of protocol processing at a high priority.
func DefaultConfig() Config {
	return Config{
		WAtm:    25 * vtime.Microsecond,
		WProto:  35 * vtime.Microsecond,
		PrioNet: simkern.PrioMax - 2,
	}
}

type link struct {
	dMin, dMax   vtime.Duration
	lastDelivery vtime.Time // FIFO enforcement
}

// Stats aggregates network behaviour for the experiment harness.
type Stats struct {
	Sent      int
	Delivered int
	Dropped   int
	Late      int // performance failures injected
	// PartDropped counts messages cut by an active network partition
	// (also included in Dropped).
	PartDropped int
	MaxDelay    vtime.Duration
}

// Network is the simulated interconnect. Not safe for concurrent use.
type Network struct {
	eng       *simkern.Engine
	cfg       Config
	links     map[[2]int]*link
	handlers  map[int]map[string]func(*Message)
	fault     FaultHook
	down      map[int]bool
	downWatch []func(node int, down bool)
	side      map[int]int // node → partition side (empty = no partition)
	partWatch []func(partitioned bool)
	nextID    uint64
	stats     Stats
	protoSeq  uint64
	free      *flight // recycled message records; grows on demand
}

// flight is the recycled record of one message in flight (see the
// package doc): the owner of its receive path's events and of its
// NetMsg thread.
type flight struct {
	n    *Network
	m    Message
	to   *simkern.Processor
	th   simkern.Thread
	seq  uint64 // the NetMsg thread's number, rendered only if read
	next *flight
}

// The receive path's stages, by payload.
const (
	stageArrive uint64 = iota // the message reaches the receiver's card
	stageATM                  // the ATM interrupt's handler has run
	stageLocal                // a delayed local hop lands (LocalAfter)
)

// Fire runs the receive path's stage.
func (f *flight) Fire(stage uint64) {
	switch stage {
	case stageArrive:
		f.onArrive()
	case stageATM:
		f.onATM()
	default:
		f.onLocal()
	}
}

// ThreadName names the NetMsg thread, when a kept record reads it.
func (f *flight) ThreadName() string {
	var buf [32]byte
	return string(strconv.AppendUint(append(buf[:0], "NetMsg#"...), f.seq, 10))
}

// ThreadDone ends the NetMsg thread by delivering the message.
func (f *flight) ThreadDone() { f.deliver() }

// take returns a record from the free list, or a new one.
func (n *Network) take() *flight {
	f := n.free
	if f == nil {
		return &flight{n: n}
	}
	n.free, f.next = f.next, nil
	return f
}

// release zeroes f's Message, so the payload is not kept reachable, and
// returns f to the free list.
func (n *Network) release(f *flight) {
	f.m = Message{}
	f.next, n.free = n.free, f
}

// New creates a network over the engine's processors.
func New(eng *simkern.Engine, cfg Config) *Network {
	return &Network{
		eng:      eng,
		cfg:      cfg,
		links:    make(map[[2]int]*link),
		handlers: make(map[int]map[string]func(*Message)),
		down:     make(map[int]bool),
	}
}

// Stats returns a snapshot of the network counters.
func (n *Network) Stats() Stats { return n.stats }

// Inflight returns the number of messages sent but neither delivered
// nor dropped — the wire-occupancy signal the metrics plane samples
// (drops are counted whether they happen at send time or in flight,
// so the difference is exact).
func (n *Network) Inflight() int {
	return n.stats.Sent - n.stats.Delivered - n.stats.Dropped
}

// SetFault installs the fault hook (nil disables injection).
func (n *Network) SetFault(f FaultHook) { n.fault = f }

// SetNodeDown marks a processor as crashed: messages to or from it are
// dropped silently (crashed nodes neither send nor receive). State
// changes notify the watchers registered with OnDownChange.
func (n *Network) SetNodeDown(proc int, isDown bool) {
	if n.down[proc] == isDown {
		return
	}
	n.down[proc] = isDown
	for _, w := range n.downWatch {
		w(proc, isDown)
	}
}

// OnDownChange registers a watcher invoked on every crash/recovery
// transition — services that keep per-node liveness state (the fault
// detector, membership) use it to reinitialise deterministically on
// recovery rather than inferring it from message arrival.
func (n *Network) OnDownChange(fn func(node int, down bool)) {
	n.downWatch = append(n.downWatch, fn)
}

// NodeDown reports whether proc is marked crashed.
func (n *Network) NodeDown(proc int) bool { return n.down[proc] }

// SetPartition cuts the network into the given sides: messages between
// nodes on different sides are dropped (in both directions, including
// copies already in flight) until Heal. Nodes listed in no side keep
// full connectivity — they stand for hosts outside the segmented
// segment (e.g. a client on an unaffected subnet). A node may appear
// in at most one side. Watchers registered with OnPartitionChange fire
// on the transition, so liveness-tracking services can react
// deterministically.
func (n *Network) SetPartition(sides ...[]int) {
	side := make(map[int]int)
	for i, s := range sides {
		for _, node := range s {
			if prev, dup := side[node]; dup && prev != i {
				panic(fmt.Sprintf("netsim: node %d in two partition sides", node))
			}
			side[node] = i
		}
	}
	n.side = side
	n.eng.Recordf(monitor.KindPartition, -1, "net", "split %v", sides)
	for _, w := range n.partWatch {
		w(true)
	}
}

// Heal removes the partition: full declared connectivity is restored
// and partition watchers fire.
func (n *Network) Heal() {
	if n.side == nil {
		return
	}
	n.side = nil
	n.eng.Recordf(monitor.KindPartition, -1, "net", "heal")
	for _, w := range n.partWatch {
		w(false)
	}
}

// Partitioned reports whether the a→b path is currently cut by the
// partition (both endpoints on known, different sides).
func (n *Network) Partitioned(a, b int) bool {
	if n.side == nil {
		return false
	}
	sa, oka := n.side[a]
	sb, okb := n.side[b]
	return oka && okb && sa != sb
}

// PartitionActive reports whether a partition is in force.
func (n *Network) PartitionActive() bool { return n.side != nil }

// Side returns the partition side of a node and whether it is listed
// in the active partition (false also when no partition is active).
func (n *Network) Side(node int) (int, bool) {
	s, ok := n.side[node]
	return s, ok
}

// OnPartitionChange registers a watcher invoked whenever a partition
// is installed (true) or healed (false).
func (n *Network) OnPartitionChange(fn func(partitioned bool)) {
	n.partWatch = append(n.partWatch, fn)
}

// Connect creates a bidirectional link between processors a and b with
// transmission delay bounds [dMin, dMax].
func (n *Network) Connect(a, b int, dMin, dMax vtime.Duration) {
	if dMin < 0 || dMax < dMin {
		panic(fmt.Sprintf("netsim: bad delay bounds [%s,%s]", dMin, dMax))
	}
	n.links[[2]int{a, b}] = &link{dMin: dMin, dMax: dMax}
	n.links[[2]int{b, a}] = &link{dMin: dMin, dMax: dMax}
}

// ConnectAll fully connects the given processors with the same bounds.
func (n *Network) ConnectAll(procs []int, dMin, dMax vtime.Duration) {
	for i, a := range procs {
		for _, b := range procs[i+1:] {
			n.Connect(a, b, dMin, dMax)
		}
	}
}

// DelayBound returns the worst-case delay of the a→b link, which
// time-bounded services use to size their round lengths. The second
// result is false if the processors are not connected.
func (n *Network) DelayBound(a, b int) (vtime.Duration, bool) {
	l, ok := n.links[[2]int{a, b}]
	if !ok {
		return 0, false
	}
	return l.dMax, true
}

// DelayBounds returns both delay bounds of the a→b link; clock
// synchronisation uses the midpoint as its delay estimator.
func (n *Network) DelayBounds(a, b int) (dMin, dMax vtime.Duration, ok bool) {
	l, found := n.links[[2]int{a, b}]
	if !found {
		return 0, 0, false
	}
	return l.dMin, l.dMax, true
}

// Bind registers the handler for messages to proc on port. Binding a
// port twice replaces the handler. The *Message a handler receives lives
// only for the call: its record is recycled when the handler returns, so
// a handler copies what it keeps (the Message by value, its Payload).
func (n *Network) Bind(proc int, port string, h func(*Message)) {
	m := n.handlers[proc]
	if m == nil {
		m = make(map[string]func(*Message))
		n.handlers[proc] = m
	}
	m[port] = h
}

// Local hands payload from `from` to the handler bound for `to` on
// port — the last step of the receive path — and reports whether one
// was bound. There are no self-links, so a sender co-located with its
// receiver calls this instead of Send, after whatever delay it charges
// for the local dispatch; nothing is counted or recorded here, and the
// message carries no id.
func (n *Network) Local(from, to int, port string, payload any, size int) bool {
	f := n.take()
	f.m = Message{From: from, To: to, Port: port, Payload: payload, Size: size, SentAt: n.eng.Now()}
	ok := n.handle(&f.m)
	n.release(f)
	return ok
}

// LocalAfter is Local after delay, for a co-located sender that charges
// a local dispatch cost: unless from is down now, the hop is armed on a
// recycled record as an application-class event, and it reaches the
// handler bound for to on port unless to is down when it lands. A
// steady-state hop allocates nothing.
func (n *Network) LocalAfter(delay vtime.Duration, from, to int, port string, payload any, size int) {
	if n.down[from] {
		return
	}
	f := n.take()
	f.m = Message{From: from, To: to, Port: port, Payload: payload, Size: size, SentAt: n.eng.Now()}
	n.eng.Arm(n.eng.Now().Add(delay), eventq.ClassApp, f, stageLocal)
}

// onLocal lands a LocalAfter hop and recycles its record.
func (f *flight) onLocal() {
	n, m := f.n, &f.m
	if !n.down[m.To] {
		n.handle(m)
	}
	n.release(f)
}

// handle runs the handler bound for m's receiver and port, if any.
func (n *Network) handle(m *Message) bool {
	h := n.handlers[m.To][m.Port]
	if h != nil {
		h(m)
	}
	return h != nil
}

// ErrNoLink is returned when sending between unconnected processors.
var ErrNoLink = errors.New("netsim: processors not connected")

// Send transmits payload from processor `from` to `to` on port and
// returns the message id. Delivery (if the message survives injection)
// raises the ATM interrupt on the receiver, runs the protocol task, and
// then invokes the bound handler.
func (n *Network) Send(from, to int, port string, payload any, size int) (uint64, error) {
	l, ok := n.links[[2]int{from, to}]
	if !ok {
		return 0, ErrNoLink
	}
	n.nextID++
	id := n.nextID
	f := n.take()
	f.m = Message{ID: id, From: from, To: to, Port: port, Payload: payload, Size: size, SentAt: n.eng.Now()}
	n.stats.Sent++
	n.eng.Recordf(monitor.KindMessageSend, from, port, "to=n%d id=%d", to, id)

	if n.down[from] || n.down[to] {
		n.drop(f, "node down")
		return id, nil
	}
	if n.Partitioned(from, to) {
		n.stats.PartDropped++
		n.drop(f, "partitioned")
		return id, nil
	}

	delay := l.dMin
	if span := l.dMax - l.dMin; span > 0 {
		delay += vtime.Duration(n.eng.Rand().Int63n(int64(span) + 1))
	}
	if n.fault != nil {
		switch v := n.fault.Judge(&f.m); v.Fate {
		case FateDrop:
			n.drop(f, "omission")
			return id, nil
		case FateDelay:
			n.stats.Late++
			delay += v.Extra
		}
	}
	if delay > n.stats.MaxDelay {
		n.stats.MaxDelay = delay
	}

	arrive := n.eng.Now().Add(delay)
	if arrive < l.lastDelivery { // FIFO per directed link
		arrive = l.lastDelivery
	}
	l.lastDelivery = arrive
	n.eng.Arm(arrive, eventq.ClassNetwork, f, stageArrive)
	return id, nil
}

// onArrive runs the paper's receive path: ATM interrupt, then the
// NetMsg protocol thread, then the port handler.
func (f *flight) onArrive() {
	n, m := f.n, &f.m
	if n.down[m.To] {
		n.drop(f, "receiver down")
		return
	}
	if n.Partitioned(m.From, m.To) {
		// The cut is instantaneous: copies in flight when the partition
		// starts are lost with the segment.
		n.stats.PartDropped++
		n.drop(f, "partitioned in flight")
		return
	}
	procs := n.eng.Processors()
	if m.To < 0 || m.To >= len(procs) {
		panic(fmt.Sprintf("netsim: message to unknown processor %d", m.To))
	}
	f.to = procs[m.To]
	f.to.RaiseIRQ(simkern.IRQATM, n.cfg.WAtm, f, stageATM)
}

// onATM ends the interrupt: the protocol thread, reinitialised in place
// and named only if a kept record reads its name.
func (f *flight) onATM() {
	n := f.n
	if n.cfg.WProto <= 0 {
		f.deliver()
		return
	}
	n.protoSeq++
	f.seq = n.protoSeq
	f.to.InitThread(&f.th, f, n.cfg.PrioNet)
	f.th.AddSegment(simkern.Segment{Work: n.cfg.WProto, PT: simkern.PrioMax})
	f.th.Ready()
}

// deliver hands the message to its handler and recycles the record.
func (f *flight) deliver() {
	n, m := f.n, &f.m
	m.DeliveredAt = n.eng.Now()
	n.stats.Delivered++
	n.eng.Recordf(monitor.KindMessageRecv, m.To, m.Port, "from=n%d id=%d lat=%s", m.From, m.ID, m.DeliveredAt.Sub(m.SentAt))
	if !n.handle(m) {
		// Unbound port: drop quietly but record, so tests can assert.
		n.eng.Recordf(monitor.KindMessageDrop, m.To, m.Port, "id=%d no handler", m.ID)
	}
	n.release(f)
}

// drop accounts one lost message: the counter, the monitor record, and
// the link back into the causal tracing plane — a dropped payload
// implementing trace.Carrier marks every trace it carries violating,
// which forces full-history retention regardless of the sample rate
// (the "every omission carries its causal history" rule). Purely
// observational; the retry machinery above this layer is untouched.
// The record is recycled.
func (n *Network) drop(f *flight, why string) {
	m := &f.m
	n.stats.Dropped++
	n.eng.Recordf(monitor.KindMessageDrop, m.To, m.Port, "id=%d %s", m.ID, why)
	if c, ok := m.Payload.(trace.Carrier); ok {
		for _, tr := range c.TraceRefs() {
			tr.Violate("omission: %s id=%d %s", m.Port, m.ID, why)
		}
	}
	n.release(f)
}

// WorstCaseReceivePath returns the CPU cost on the receiver for one
// message (interrupt + protocol), used by feasibility analyses that must
// account the NetMsg task as a sporadic kernel activity (§4.2).
func (n *Network) WorstCaseReceivePath() vtime.Duration { return n.cfg.WAtm + n.cfg.WProto }
