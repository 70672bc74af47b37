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

// remotePayload is the datagram for one remote precedence crossing: it
// identifies the destination unit of a live instance and carries the
// edge's parameters.
type remotePayload struct {
	Task   string
	Seq    uint64
	ToEU   int
	Params map[string]any
}

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
func (d *Dispatcher) sendRemote(src *Thread, ei int) {
	task := src.inst.TR.Task
	e := task.Edges[ei]
	destEU := task.EUs[e.To]
	from, to := src.Node(), destEU.NodeOf()
	if d.net == nil {
		panic(fmt.Sprintf("dispatcher: task %q has a remote edge %s->%s but no network is configured",
			task.Name, task.EUs[e.From].Name, destEU.Name))
	}
	var params map[string]any // made at the first parameter the source wrote
	for _, p := range e.Params {
		if v, ok := src.outputs[p]; ok {
			if params == nil {
				params = make(map[string]any, len(e.Params))
			}
			params[p] = v
		}
	}
	payload := remotePayload{Task: task.Name, Seq: src.inst.Seq, ToEU: e.To, Params: params}
	id, err := d.net.Send(from, to, remotePort, payload, 64+16*len(params))
	if err != nil {
		d.stats.NetworkOmissions++
		d.eng.Recordf(monitor.KindNetworkOmission, from, src.name, "no link to n%d", to)
		return
	}
	dmax, _ := d.net.DelayBound(from, to)
	bound := dmax + d.net.WorstCaseReceivePath() + omissionSlack
	d.pendingRemote[id] = pendingCrossing{
		watch: d.eng.Arm(d.eng.Now().Add(bound), eventq.ClassDispatch, omissionWatch{d}, id),
		src:   src.name, dest: src.inst.Threads[e.To].name, to: to, bound: bound,
	}
}

// receiveRemote satisfies a remote precedence constraint on delivery.
func (d *Dispatcher) receiveRemote(m *netsim.Message) {
	if p, ok := d.pendingRemote[m.ID]; ok {
		d.eng.Cancel(p.watch)
		delete(d.pendingRemote, m.ID)
	}
	pl, ok := m.Payload.(remotePayload)
	if !ok {
		panic("dispatcher: foreign payload on heug.prec port")
	}
	inst := d.live[instKey{pl.Task, pl.Seq}]
	if inst == nil || inst.cancelled {
		// The instance is gone (completed late, cancelled, or orphaned):
		// the delivery is an orphan message.
		d.eng.Recordf(monitor.KindMessageDrop, m.To, pl.Task, "#%d orphan delivery", pl.Seq)
		return
	}
	dest := inst.Threads[pl.ToEU]
	for k, v := range pl.Params {
		dest.setInput(k, v)
	}
	dest.predsLeft--
	d.evaluate(dest)
}
