package dispatcher_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hades/internal/cluster"
	"hades/internal/dispatcher"
	"hades/internal/feasibility"
	"hades/internal/heug"
	"hades/internal/monitor"
	"hades/internal/sched"
	"hades/internal/vtime"
)

// buildRandomSystem assembles a random sporadic workload under EDF+SRP
// with full costs and runs it, returning the system.
func buildRandomSystem(seed int64, u float64, horizon vtime.Duration) *cluster.Cluster {
	rng := rand.New(rand.NewSource(seed))
	tasks := feasibility.Generate(rng, feasibility.DefaultGenConfig(4, u))
	sys := cluster.New(cluster.Config{Seed: seed, Costs: dispatcher.DefaultCostBook()})
	sys.Log().Keep(monitor.Kinds()...)
	app := sys.NewApp("w", sched.NewEDF(20*us), sched.NewSRP())
	for _, ft := range tasks {
		if err := app.AddSpuri(feasibility.ToSpuri(ft, tasks, 0)); err != nil {
			panic(err)
		}
	}
	app.Seal()
	for _, ft := range tasks {
		if err := sys.StartSporadicWorstCase(ft.Name); err != nil {
			panic(err)
		}
	}
	sys.Run(horizon)
	return sys
}

// Property: an exclusive resource is never held by two threads at once,
// and grants/releases balance — across random workloads.
func TestPropertyExclusiveResourceSafety(t *testing.T) {
	f := func(seedRaw uint32) bool {
		sys := buildRandomSystem(int64(seedRaw)+1, 0.7, 150*ms)
		holds := map[string]int{}
		for _, e := range sys.Log().ByKind(monitor.KindResourceGrant, monitor.KindResourceRelease) {
			if e.Kind == monitor.KindResourceGrant {
				holds[e.Subject]++
				if holds[e.Subject] > 1 {
					return false // exclusive double-hold
				}
			} else {
				holds[e.Subject]--
				if holds[e.Subject] < 0 {
					return false // release without grant
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: under SRP, a thread that started executing never blocks —
// the protocol's defining guarantee [Bak91]. Detectable as: no thread
// has a Start event followed by a later Ready-state re-entry without
// finishing (our dispatcher would have to suspend it for resources,
// which must not happen).
func TestPropertySRPNoBlockingAfterStart(t *testing.T) {
	f := func(seedRaw uint32) bool {
		sys := buildRandomSystem(int64(seedRaw)+1000, 0.8, 150*ms)
		// If a started thread blocked on resources, the dispatcher
		// would record a Rac *after* its Start. Scan per thread.
		started := map[string]bool{}
		for _, e := range sys.Log().Events() {
			switch e.Kind {
			case monitor.KindThreadStart:
				started[e.Subject] = true
			case monitor.KindNotification:
				if e.Subject == "Rac" && started[e.Detail] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: completed instances took at least their total actual work
// (virtual time cannot be cheated) and every violation recorded has a
// corresponding stats counter.
func TestPropertyResponseLowerBound(t *testing.T) {
	f := func(seedRaw uint32) bool {
		seed := int64(seedRaw) + 2000
		rng := rand.New(rand.NewSource(seed))
		tasks := feasibility.Generate(rng, feasibility.DefaultGenConfig(3, 0.5))
		sys := cluster.New(cluster.Config{Seed: seed})
		app := sys.NewApp("w", sched.NewEDF(0), nil)
		for _, ft := range tasks {
			if err := app.AddSpuri(feasibility.ToSpuri(ft, tasks, 0)); err != nil {
				panic(err)
			}
		}
		app.Seal()
		for _, ft := range tasks {
			if err := sys.StartSporadicWorstCase(ft.Name); err != nil {
				panic(err)
			}
		}
		rep := sys.Run(100 * ms)
		for _, tr := range rep.Tasks {
			if tr.Completions == 0 {
				continue
			}
			var c vtime.Duration
			for _, ft := range tasks {
				if ft.Name == tr.Name {
					c = ft.C
				}
			}
			if tr.MaxResponse < c {
				return false // finished faster than its own WCET
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestPreemptionThresholdAblation verifies the pt attribute's purpose
// (§3.1.2): with pt equal to its priority, a long low-priority unit is
// preempted by a higher-priority pinger, whose response stays small;
// with pt raised above the pinger, the unit runs shielded and the
// pinger absorbs the blocking — its worst response grows by orders of
// magnitude. (Dispatcher kernel work at PrioScheduler pierces any
// threshold, as it must.)
func TestPreemptionThresholdAblation(t *testing.T) {
	run := func(pt int) (pingResp vtime.Duration, longDone int) {
		sys := cluster.New(cluster.Config{Seed: 9, Costs: dispatcher.DefaultCostBook()})
		app := sys.NewApp("a", sched.NewBestEffort(), nil)
		long := heug.NewTask("long", heug.PeriodicEvery(50*ms)).
			WithDeadline(50*ms).
			Code("body", heug.CodeEU{Node: 0, WCET: 20 * ms, Prio: 10, PT: pt}).
			MustBuild()
		pinger := heug.NewTask("ping", heug.PeriodicEvery(5*ms)).
			WithDeadline(25*ms).
			Code("p", heug.CodeEU{Node: 0, WCET: 200 * us, Prio: 20}).
			MustBuild()
		app.MustAddTask(long)
		app.MustAddTask(pinger)
		app.Seal()
		// BestEffort flattens priorities at Seal; restore the intent.
		long.EUs[0].Code.Prio, long.EUs[0].Code.PT = 10, pt
		pinger.EUs[0].Code.Prio = 20
		_ = sys.StartPeriodic("long")
		_ = sys.StartPeriodic("ping")
		rep := sys.Run(200 * ms)
		for _, tr := range rep.Tasks {
			switch tr.Name {
			case "ping":
				pingResp = tr.MaxResponse
			case "long":
				longDone = tr.Completions
			}
		}
		return pingResp, longDone
	}
	respOpen, doneOpen := run(0)          // pt = prio: fully preemptible
	respShielded, doneShielded := run(25) // pt above the pinger
	if respShielded < 4*respOpen {
		t.Fatalf("raising pt did not shield: ping response %s (open) vs %s (shielded)",
			respOpen, respShielded)
	}
	if respOpen > 2*ms {
		t.Fatalf("preemptible ping response %s unexpectedly large", respOpen)
	}
	if doneOpen != doneShielded {
		t.Fatalf("long completions changed with pt: %d vs %d", doneOpen, doneShielded)
	}
}

// TestKernelCallNonPreemptible checks §3.1.2's rule that kernel calls
// run at pt = prio_max: the start/end segments of an EU cannot be
// preempted by application threads (only interrupts).
func TestKernelCallNonPreemptible(t *testing.T) {
	sys := cluster.New(cluster.Config{Seed: 9, Costs: dispatcher.CostBook{
		StartAction: 1 * ms, // grotesquely long kernel call, to probe
		EndAction:   1 * ms,
	}})
	sys.Log().Keep(monitor.KindThreadPreempt)
	app := sys.NewApp("a", sched.NewBestEffort(), nil)
	lo := heug.NewTask("lo", heug.AperiodicLaw()).
		WithDeadline(50*ms).
		Code("eu", heug.CodeEU{Node: 0, WCET: 1 * ms, Prio: 1}).
		MustBuild()
	hi := heug.NewTask("hi", heug.AperiodicLaw()).
		WithDeadline(50*ms).
		Code("eu", heug.CodeEU{Node: 0, WCET: 1 * ms, Prio: 30}).
		MustBuild()
	app.MustAddTask(lo)
	app.MustAddTask(hi)
	app.Seal()
	lo.EUs[0].Code.Prio = 1
	hi.EUs[0].Code.Prio = 30
	sys.ActivateAt("lo", 0)
	// hi arrives while lo is inside its 1ms StartAction kernel call.
	sys.ActivateAt("hi", vtime.Time(500*us))
	sys.Run(100 * ms)
	// lo's kernel call must not have been preempted by hi: the first
	// preemption of lo.eu can only occur at/after 1ms (body start).
	for _, e := range sys.Log().ByKind(monitor.KindThreadPreempt) {
		if e.Subject == "lo#1.eu" && e.At < vtime.Time(1*ms) {
			t.Fatalf("kernel call preempted at %s", e.At)
		}
	}
}
