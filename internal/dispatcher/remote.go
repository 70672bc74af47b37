package dispatcher

import (
	"fmt"

	"hades/internal/eventq"
	"hades/internal/monitor"
	"hades/internal/netsim"
	"hades/internal/vtime"
)

// remotePort is the netsim port carrying remote precedence constraints.
const remotePort = "heug.prec"

// omissionSlack is added to the worst-case remote-delivery bound before
// declaring a network omission failure.
const omissionSlack = 100 * vtime.Microsecond

// pendingCrossing is the omission watchdog of one remote crossing in
// flight: its handle, and what the omission record names.
type pendingCrossing struct {
	watch     eventq.Handle
	src, dest string // the units at the edge's two ends
	to        int    // the destination node
	bound     vtime.Duration
}

// omissionWatch is the dispatcher as the handler of its omission
// watchdogs; the payload is the crossing's message ID.
type omissionWatch struct{ d *Dispatcher }

func (w omissionWatch) Fire(id uint64) {
	d := w.d
	p := d.pendingRemote[id]
	delete(d.pendingRemote, id)
	d.stats.NetworkOmissions++
	d.eng.Recordf(monitor.KindNetworkOmission, p.to, p.dest,
		"remote precedence from %s not satisfied within %s", p.src, p.bound)
}

// sendRemote crosses a remote precedence constraint: the data was
// already handed to the communication protocol (C_trans_data is folded
// into the source's end segment); here the NetMsg task takes over. The
// dispatcher also arms the omission monitor of §3.2.1: if the message
// has not satisfied the constraint within the link's worst-case bound
// plus the receive path and slack, a network omission failure is
// declared.
//
// The datagram is the destination unit itself: a pointer, so boxing it
// allocates nothing, and valid for as long as anyone holds it, since an
// instance is never reused. The edge's parameters are read from the
// source's outputs at delivery.
func (d *Dispatcher) sendRemote(src *Thread, ei int) {
	task := src.inst.TR.Task
	e := task.Edges[ei]
	destEU := task.EUs[e.To]
	from, to := src.Node(), destEU.NodeOf()
	if d.net == nil {
		panic(fmt.Sprintf("dispatcher: task %q has a remote edge %s->%s but no network is configured",
			task.Name, task.EUs[e.From].Name, destEU.Name))
	}
	dest := src.inst.Threads[e.To]
	id, err := d.net.Send(from, to, remotePort, dest, 64+16*len(e.Params))
	if err != nil {
		d.stats.NetworkOmissions++
		d.eng.Recordf(monitor.KindNetworkOmission, from, src.name, "no link to n%d", to)
		return
	}
	dmax, _ := d.net.DelayBound(from, to)
	bound := dmax + d.net.WorstCaseReceivePath() + omissionSlack
	d.pendingRemote[id] = pendingCrossing{
		watch: d.eng.Arm(d.eng.Now().Add(bound), eventq.ClassDispatch, omissionWatch{d}, id),
		src:   src.name, dest: dest.name, to: to, bound: bound,
	}
}

// receiveRemote satisfies a remote precedence constraint on delivery.
// The payload is the destination unit; the parameters it receives are
// those of its in-edges from finished sources on the sending node.
func (d *Dispatcher) receiveRemote(m *netsim.Message) {
	if p, ok := d.pendingRemote[m.ID]; ok {
		d.eng.Cancel(p.watch)
		delete(d.pendingRemote, m.ID)
	}
	dest, ok := m.Payload.(*Thread)
	if !ok {
		panic("dispatcher: foreign payload on heug.prec port")
	}
	inst := dest.inst
	if inst.completed || inst.cancelled {
		// The instance is gone (completed late, cancelled, or orphaned):
		// the delivery is an orphan message.
		d.eng.Recordf(monitor.KindMessageDrop, m.To, inst.TR.Task.Name, "#%d orphan delivery", inst.Seq)
		return
	}
	for _, e := range inst.TR.Task.Edges {
		if src := inst.Threads[e.From]; e.To == dest.euIdx && src.state == threadDone && src.Node() == m.From {
			dest.takeParams(src, e)
		}
	}
	dest.predsLeft--
	d.evaluate(dest)
}
