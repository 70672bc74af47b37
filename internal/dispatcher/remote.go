package dispatcher

import (
	"fmt"

	"hades/internal/eventq"
	"hades/internal/monitor"
	"hades/internal/netsim"
)

// remotePort is the netsim port carrying remote precedence constraints.
const remotePort = "heug.prec"

// remotePayload is the datagram for one remote precedence crossing: it
// identifies the destination unit of a live instance and carries the
// edge's parameters.
type remotePayload struct {
	Task   string
	Seq    uint64
	ToEU   int
	Params map[string]any
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
	params := make(map[string]any, len(e.Params))
	for _, p := range e.Params {
		if v, ok := src.outputs[p]; ok {
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
	bound := dmax + d.net.WorstCaseReceivePath() + d.OmissionSlack
	dest := src.inst.Threads[e.To]
	ev := d.eng.Timer(d.eng.Now().Add(bound), eventq.ClassDispatch, func() {
		delete(d.pendingRemote, id)
		d.stats.NetworkOmissions++
		d.eng.Recordf(monitor.KindNetworkOmission, to, dest.name,
			"remote precedence from %s not satisfied within %s", src.name, bound)
	})
	d.pendingRemote[id] = ev
}

// receiveRemote satisfies a remote precedence constraint on delivery.
func (d *Dispatcher) receiveRemote(m *netsim.Message) {
	if ev, ok := d.pendingRemote[m.ID]; ok {
		d.eng.Cancel(ev)
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
		dest.inputs[k] = v
	}
	dest.predsLeft--
	d.evaluate(dest)
}
