// Avionics: the application domain the paper targets ("a large
// real-time application from the avionics application domain is planned
// to be implemented", §7).
//
// A fly-by-wire flight-control pipeline on three nodes:
//
//	node 0 (sensor computer):  gyro/accelerometer sampling at 100 Hz
//	node 1 (flight computer):  sensor fusion then the control law,
//	                           sharing the state store under SRP
//	node 2 (actuator computer): surface command output at 100 Hz
//
// The pipeline crosses the (simulated ATM) network twice — both remote
// precedence constraints go through the NetMsg path with omission
// monitoring — while the flight-computer state is checkpointed by a
// passive replica group over a view-synchronous membership group, and
// clock synchronisation keeps the logical clocks aligned. Fault
// injection crashes the backup's node mid-flight (the pipeline must not
// care; membership removes it and re-admits it with a state transfer on
// recovery) and drops one pipeline message (the omission monitor must
// say so). The whole system — nodes, links, apps, services, faults —
// is described through the cluster runtime layer.
//
//	go run ./examples/avionics
package main

import (
	"fmt"

	"hades/internal/clocksync"
	"hades/internal/cluster"
	"hades/internal/dispatcher"
	"hades/internal/heug"
	"hades/internal/replication"
	"hades/internal/sched"
	"hades/internal/vtime"
)

const (
	us = vtime.Microsecond
	ms = vtime.Millisecond
)

func main() {
	c := cluster.New(cluster.Config{Seed: 7, Costs: dispatcher.DefaultCostBook()})
	c.AddNodes(4) // 3 flight-critical + 1 maintenance
	c.ConnectAll(100*us, 250*us)

	app := c.NewApp("flight-control", sched.NewEDF(20*us), sched.NewSRP())

	// The 100 Hz control pipeline: sample → fuse → law → actuate.
	pipeline := heug.NewTask("fbw", heug.PeriodicEvery(10*ms)).
		WithDeadline(8*ms).
		Code("sample", heug.CodeEU{Node: 0, WCET: 250 * us, Action: func(ctx heug.ActionContext) {
			ctx.Out("imu", int64(ctx.Instance())*3%997)
		}}).
		Code("fuse", heug.CodeEU{Node: 1, WCET: 600 * us,
			Resources: []heug.ResourceReq{{Resource: "state", Mode: heug.Exclusive}},
			Action: func(ctx heug.ActionContext) {
				v, _ := ctx.In("imu")
				ctx.Out("attitude", v)
			}}).
		Code("law", heug.CodeEU{Node: 1, WCET: 900 * us,
			Resources: []heug.ResourceReq{{Resource: "state", Mode: heug.Shared}},
			Action: func(ctx heug.ActionContext) {
				v, _ := ctx.In("attitude")
				ctx.Out("cmd", v)
			}}).
		Code("actuate", heug.CodeEU{Node: 2, WCET: 200 * us}).
		Precede("sample", "fuse", "imu").
		Precede("fuse", "law", "attitude").
		Precede("law", "actuate", "cmd").
		MustBuild()

	// A slower 10 Hz telemetry task on the flight computer, reading
	// the shared state.
	telemetry := heug.NewTask("telemetry", heug.PeriodicEvery(100*ms)).
		WithDeadline(80*ms).
		Code("pack", heug.CodeEU{Node: 1, WCET: 2 * ms,
			Resources: []heug.ResourceReq{{Resource: "state", Mode: heug.Shared}}}).
		Code("downlink", heug.CodeEU{Node: 3, WCET: 500 * us}).
		Precede("pack", "downlink").
		MustBuild()

	app.MustSpawn(pipeline)
	app.MustSpawn(telemetry)

	// Services: a view-synchronous membership group over all four
	// nodes (heartbeat detection, agreed view changes, rejoin with
	// state transfer), passive replication of the flight-state service
	// driven by the installed views, and clock synchronisation (n=4
	// tolerates one Byzantine clock).
	eng, net := c.Engine(), c.Network()
	grp := c.Group("avionics", 0, 1, 2, 3)
	group := grp.Replicate(replication.Config{
		Name:            "flight-state",
		Replicas:        []int{1, 3}, // flight computer + maintenance node
		Style:           replication.Passive,
		WExec:           100 * us,
		CheckpointEvery: 10,
		StorageLatency:  30 * us,
	}, nil)

	cs, err := clocksync.New(eng, net, clocksync.DefaultConfig([]int{0, 1, 2, 3}, 1))
	must(err)
	cs.Start()

	// Feed the replicated flight-state service at 200 Hz.
	for i := 0; i < 100; i++ {
		cmd := int64(i)
		c.At(vtime.Time(vtime.Duration(i)*5*ms), func() { group.Submit(1, cmd) })
	}

	// Faults: one dropped pipeline message at ~95 ms (omission
	// failure), and the maintenance node crashes at 200 ms, recovering
	// at 400 ms.
	c.DropEvery(40, "heug.prec")
	c.Crash(3, vtime.Time(200*ms), vtime.Time(400*ms))

	result := c.Run(500 * ms)

	fmt.Println("=== avionics: fly-by-wire pipeline over 500 ms ===")
	fmt.Print(result)
	fmt.Printf("network omissions detected by the dispatcher: %d\n", result.Stats.NetworkOmissions)
	fmt.Printf("clock sync rounds: %d, precision: %s (bound %s)\n", cs.Rounds(), cs.Precision(), cs.Bound())
	mem := grp.Membership()
	fmt.Printf("detector suspicions: %d, agreed views: %v (maintenance node crash + rejoin)\n",
		len(mem.Detector().Suspicions), mem.AgreedViews())
	fmt.Printf("replica failovers: %d, state transfers on rejoin: %d\n", len(group.Failovers), len(mem.Transfers))
	misses := 0
	if tr, ok := result.Task("fbw"); ok {
		misses = tr.Misses
	}
	fmt.Printf("flight-control deadline misses: %d (pipeline instances whose message was dropped miss by design; all others must hold)\n", misses)
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
