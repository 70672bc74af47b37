package feasibility

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hades/internal/dispatcher"
	"hades/internal/heug"
	"hades/internal/vtime"
)

const (
	us = vtime.Microsecond
	ms = vtime.Millisecond
)

func TestLiuLaylandBound(t *testing.T) {
	// Two tasks: bound is 2(2^0.5 - 1) ≈ 0.828.
	mk := func(c, p vtime.Duration) Task {
		return Task{C: c, D: p, T: p, NumEU: 1}
	}
	ok := []Task{mk(2*ms, 10*ms), mk(3*ms, 10*ms)} // U = 0.5
	if v := LiuLayland(ok); !v.Feasible {
		t.Fatalf("U=0.5 rejected: %s", v.Why)
	}
	bad := []Task{mk(5*ms, 10*ms), mk(4*ms, 10*ms)} // U = 0.9 > 0.828
	if v := LiuLayland(bad); v.Feasible {
		t.Fatal("U=0.9 accepted by the LL bound")
	}
	if v := LiuLayland(nil); !v.Feasible {
		t.Fatal("empty set must be feasible")
	}
}

func TestResponseTimeAnalysisTextbook(t *testing.T) {
	// Textbook example: t1=(1,5), t2=(2,10), t3=(3,20) under RM.
	// R1 = 1. R2 = 2 + 1 = 3. R3: 3 + 2·1 + 1·2 = 7 (t3 runs 3–5,
	// is preempted by t1's second job at 5, finishes 6–7).
	tasks := []Task{
		{Name: "t1", C: 1 * ms, D: 5 * ms, T: 5 * ms, NumEU: 1},
		{Name: "t2", C: 2 * ms, D: 10 * ms, T: 10 * ms, NumEU: 1},
		{Name: "t3", C: 3 * ms, D: 20 * ms, T: 20 * ms, NumEU: 1},
	}
	rs, all := ResponseTime(tasks, RateMonotonic, nil)
	if !all {
		t.Fatal("set must be schedulable")
	}
	want := []vtime.Duration{1 * ms, 3 * ms, 7 * ms}
	for i, r := range rs {
		if r.R != want[i] {
			t.Errorf("R(%s) = %s, want %s", r.Task, r.R, want[i])
		}
	}
}

func TestResponseTimeDetectsOverload(t *testing.T) {
	tasks := []Task{
		{Name: "t1", C: 3 * ms, D: 5 * ms, T: 5 * ms, NumEU: 1},
		{Name: "t2", C: 5 * ms, D: 10 * ms, T: 10 * ms, NumEU: 1},
	}
	_, all := ResponseTime(tasks, RateMonotonic, nil)
	if all {
		t.Fatal("U=1.1 accepted")
	}
}

func TestRTABlockingTerm(t *testing.T) {
	// High-priority task shares R with a low-priority task: B(high) =
	// CS(low).
	tasks := []Task{
		{Name: "hi", C: 1 * ms, D: 5 * ms, T: 5 * ms, CS: 200 * us, Resource: "R", NumEU: 3},
		{Name: "lo", C: 2 * ms, D: 50 * ms, T: 50 * ms, CS: 1 * ms, Resource: "R", NumEU: 3},
	}
	rs, _ := ResponseTime(tasks, DeadlineMonotonic, nil)
	if rs[0].Blocking != 1*ms {
		t.Fatalf("B(hi) = %s, want 1ms (lo's critical section)", rs[0].Blocking)
	}
	if rs[1].Blocking != 0 {
		t.Fatalf("B(lo) = %s, want 0 (nothing lower)", rs[1].Blocking)
	}
}

func TestEDFSpuriFeasibleSet(t *testing.T) {
	tasks := []Task{
		{Name: "a", C: 1 * ms, D: 4 * ms, T: 10 * ms, NumEU: 1},
		{Name: "b", C: 2 * ms, D: 8 * ms, T: 20 * ms, NumEU: 1},
		{Name: "c", C: 3 * ms, D: 15 * ms, T: 30 * ms, NumEU: 1},
	}
	v := EDFSpuri(tasks, nil)
	if !v.Feasible {
		t.Fatalf("U=0.3 constrained set rejected: %s (at %s)", v.Why, v.FailAt)
	}
	if v.Checked == 0 {
		t.Fatal("no deadlines checked")
	}
}

func TestEDFSpuriInfeasibleByDemand(t *testing.T) {
	// Tight deadlines make the demand at d=1ms exceed supply even
	// though U < 1.
	tasks := []Task{
		{Name: "a", C: 1 * ms, D: 1 * ms, T: 10 * ms, NumEU: 1},
		{Name: "b", C: 1 * ms, D: 1 * ms, T: 10 * ms, NumEU: 1},
	}
	v := EDFSpuri(tasks, nil)
	if v.Feasible {
		t.Fatal("2ms of work due at 1ms accepted")
	}
	if v.FailAt != 1*ms {
		t.Fatalf("FailAt = %s, want 1ms", v.FailAt)
	}
}

func TestEDFSpuriOverUtilised(t *testing.T) {
	tasks := []Task{
		{Name: "a", C: 6 * ms, D: 10 * ms, T: 10 * ms, NumEU: 1},
		{Name: "b", C: 6 * ms, D: 10 * ms, T: 10 * ms, NumEU: 1},
	}
	if v := EDFSpuri(tasks, nil); v.Feasible {
		t.Fatal("U=1.2 accepted")
	}
}

func TestSRPBlockingSemantics(t *testing.T) {
	// Long-deadline resource user blocks short-deadline tasks only if
	// the resource is shared with a short-deadline task.
	shared := []Task{
		{Name: "short", C: 1 * ms, D: 5 * ms, T: 20 * ms, CS: 100 * us, Resource: "R", NumEU: 3},
		{Name: "long", C: 2 * ms, D: 50 * ms, T: 50 * ms, CS: 2 * ms, Resource: "R", NumEU: 3},
	}
	if b := srpBlocking(shared, 5*ms, nil); b != 2*ms {
		t.Fatalf("B(5ms) = %s, want 2ms", b)
	}
	private := []Task{
		{Name: "short", C: 1 * ms, D: 5 * ms, T: 20 * ms, NumEU: 1},
		{Name: "long", C: 2 * ms, D: 50 * ms, T: 50 * ms, CS: 2 * ms, Resource: "R", NumEU: 3},
	}
	if b := srpBlocking(private, 5*ms, nil); b != 0 {
		t.Fatalf("B = %s, want 0 (no short-deadline user of R)", b)
	}
}

func TestCostIntegrationSection53(t *testing.T) {
	ov := &Overheads{
		Book:      dispatcher.DefaultCostBook(),
		SchedCost: 20 * us,
	}
	task := Task{Name: "x", C: 1 * ms, D: 5 * ms, T: 10 * ms, CS: 100 * us, Resource: "R", NumEU: 3, LocalEdges: 2}
	c := ov.inflateC(task)
	book := ov.Book
	want := task.C +
		3*(book.StartAction+book.EndAction) +
		2*book.PrecLocal +
		book.StartInv + book.EndInv +
		book.SwitchCost*3*(3+2)
	if c != want {
		t.Fatalf("InflateC = %s, want %s", c, want)
	}
	if b := ov.inflateB(500 * us); b != 500*us+book.StartAction+book.EndAction {
		t.Fatalf("InflateB wrong: %s", b)
	}
	if b := ov.inflateB(0); b != 0 {
		t.Fatal("InflateB(0) must stay 0")
	}
}

func TestSchedAndKernelDemand(t *testing.T) {
	ov := &Overheads{
		Book:      dispatcher.CostBook{ClockTickPeriod: 1 * ms, ClockTickWCET: 5 * us, SwitchCost: 2 * us},
		SchedCost: 10 * us,
	}
	tasks := []Task{{Name: "a", C: 1 * ms, D: 10 * ms, T: 10 * ms, NumEU: 1}}
	// In 10ms: 1 activation, 2 notifications, each (10+3·2)us = 32us.
	if d := ov.schedDemand(tasks, 10*ms); d != 32*us {
		t.Fatalf("SchedDemand = %s, want 32us", d)
	}
	// 10 ticks of 5us.
	if d := ov.kernelDemand(10 * ms); d != 50*us {
		t.Fatalf("KernelDemand = %s, want 50us", d)
	}
	if d := ov.kernelDemand(0); d != 0 {
		t.Fatal("KernelDemand(0) != 0")
	}
}

// Property (the paper's central safety relation): any set admitted by
// the cost-integrated test is also admitted by the naive test — costs
// only shrink the feasible region, never grow it.
func TestCostIntegratedTestIsStricter(t *testing.T) {
	ov := &Overheads{Book: dispatcher.DefaultCostBook(), SchedCost: 20 * us}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		u := 0.3 + rng.Float64()*0.65
		tasks := Generate(rng, DefaultGenConfig(2+rng.Intn(6), u))
		withCosts := EDFSpuri(tasks, ov)
		naive := EDFSpuri(tasks, nil)
		if withCosts.Feasible && !naive.Feasible {
			return false // integrated admitted something naive rejects
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: crude (inflated) cost books are at least as pessimistic as
// precise ones — the §2.2.2 accuracy argument.
func TestCrudeCostsMorePessimistic(t *testing.T) {
	precise := &Overheads{Book: dispatcher.DefaultCostBook(), SchedCost: 20 * us}
	crude := &Overheads{Book: dispatcher.DefaultCostBook().Scale(5), SchedCost: 100 * us}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tasks := Generate(rng, DefaultGenConfig(4, 0.5+rng.Float64()*0.4))
		p := EDFSpuri(tasks, precise)
		c := EDFSpuri(tasks, crude)
		return !c.Feasible || p.Feasible // crude ⊆ precise
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestUUniFastSumsToTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, u := range []float64{0.3, 0.7, 0.95} {
		us := uuniFast(rng, 8, u)
		sum := 0.0
		for _, x := range us {
			if x < 0 {
				t.Fatal("negative utilisation share")
			}
			sum += x
		}
		if sum < u-1e-9 || sum > u+1e-9 {
			t.Fatalf("sum %f, want %f", sum, u)
		}
	}
}

func TestGenerateRespectsConfig(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cfg := DefaultGenConfig(10, 0.6)
	tasks := Generate(rng, cfg)
	if len(tasks) != 10 {
		t.Fatalf("n = %d", len(tasks))
	}
	for _, task := range tasks {
		if task.T < genPeriodMin || task.T > genPeriodMax {
			t.Fatalf("period %s out of range", task.T)
		}
		if task.D > task.T || task.D < task.C {
			t.Fatalf("deadline %s outside [C=%s, T=%s]", task.D, task.C, task.T)
		}
		if task.CS > task.C {
			t.Fatal("critical section exceeds computation")
		}
		if (task.Resource == "") != (task.CS == 0) {
			t.Fatal("resource/CS inconsistency")
		}
	}
	u := Utilization(tasks)
	if u < 0.35 || u > 0.85 {
		t.Fatalf("generated utilisation %f far from 0.6", u)
	}
}

// Property: the one derivation inverts ToSpuri's split. A generated
// analysis task, translated to the Figure 3 HEUG the simulator runs on
// the node asked for, derives back to itself, unit count and local
// edges included.
func TestFromHEUGInvertsToSpuri(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for set := 0; set < 500; set++ {
		all := Generate(rng, DefaultGenConfig(5, 0.6))
		node := set % 3
		for _, want := range all {
			h, err := ToSpuri(want, all, node).ToHEUG()
			if err != nil {
				t.Fatalf("%+v: %v", want, err)
			}
			for _, eu := range h.EUs {
				if eu.NodeOf() != node {
					t.Fatalf("%s: unit %s on node %d, want %d", want.Name, eu.Name, eu.NodeOf(), node)
				}
			}
			got, err := FromHEUG(h)
			if err != nil {
				t.Fatalf("%+v: %v", want, err)
			}
			if got != want {
				t.Fatalf("round trip changed the task:\n got %+v\nwant %+v", got, want)
			}
		}
	}
}

func TestFromHEUG(t *testing.T) {
	bus := func(mode heug.AccessMode) []heug.ResourceReq {
		return []heug.ResourceReq{{Resource: "bus", Mode: mode}}
	}
	cases := []struct {
		task *heug.Task
		want Task
	}{
		{ // a sensor read, then the control law holding the bus
			heug.NewTask("control", heug.PeriodicEvery(10*ms)).WithDeadline(10*ms).
				Code("read", heug.CodeEU{Node: 0, WCET: 300 * us}).
				Code("law", heug.CodeEU{Node: 0, WCET: 1200 * us, Resources: bus(heug.Exclusive)}).
				Precede("read", "law", "sample").MustBuild(),
			Task{Name: "control", C: 1500 * us, D: 10 * ms, T: 10 * ms, CS: 1200 * us, Resource: "bus", NumEU: 2, LocalEdges: 1},
		},
		{ // one unit sharing the bus
			heug.NewTask("logger", heug.PeriodicEvery(40*ms)).WithDeadline(40*ms).
				Code("dump", heug.CodeEU{Node: 0, WCET: 3 * ms, Resources: bus(heug.Shared)}).MustBuild(),
			Task{Name: "logger", C: 3 * ms, D: 40 * ms, T: 40 * ms, CS: 3 * ms, Resource: "bus", NumEU: 1},
		},
		{ // a pipeline crossing nodes: only the same-node edge is local
			heug.NewTask("pipe", heug.SporadicEvery(20*ms)).WithDeadline(18*ms).
				Code("a", heug.CodeEU{Node: 0, WCET: 400 * us}).
				Code("b", heug.CodeEU{Node: 1, WCET: 700 * us}).
				Code("c", heug.CodeEU{Node: 1, WCET: 500 * us}).
				Precede("a", "b").Precede("b", "c").MustBuild(),
			Task{Name: "pipe", C: 1600 * us, D: 18 * ms, T: 20 * ms, NumEU: 3, LocalEdges: 1},
		},
	}
	for _, c := range cases {
		got, err := FromHEUG(c.task)
		if err != nil {
			t.Fatalf("%s: %v", c.task.Name, err)
		}
		if got != c.want {
			t.Errorf("%s:\n got %+v\nwant %+v", c.task.Name, got, c.want)
		}
	}
}

func TestFromHEUGRefusesShapesOutsideTheModel(t *testing.T) {
	excl := func(r string) []heug.ResourceReq { return []heug.ResourceReq{{Resource: r, Mode: heug.Exclusive}} }
	for _, task := range []*heug.Task{
		heug.NewTask("inv", heug.SporadicEvery(10*ms)).WithDeadline(10*ms).
			Code("a", heug.CodeEU{Node: 0, WCET: 100 * us}).
			Invoke("call", heug.InvEU{Node: 0, Target: "other", Sync: true}).
			Precede("a", "call").MustBuild(),
		heug.NewTask("twocs", heug.SporadicEvery(10*ms)).WithDeadline(10*ms).
			Code("a", heug.CodeEU{Node: 0, WCET: 100 * us, Resources: excl("S1")}).
			Code("b", heug.CodeEU{Node: 0, WCET: 100 * us, Resources: excl("S2")}).
			Precede("a", "b").MustBuild(),
		heug.NewTask("aper", heug.AperiodicLaw()).WithDeadline(10*ms).
			Code("a", heug.CodeEU{Node: 0, WCET: 100 * us}).MustBuild(),
	} {
		if got, err := FromHEUG(task); err == nil {
			t.Errorf("%s: derived %+v, want an error", task.Name, got)
		}
	}
}

// Property: demand h(l) is monotone in l.
func TestDemandMonotone(t *testing.T) {
	f := func(seed int64, aRaw, bRaw uint32) bool {
		rng := rand.New(rand.NewSource(seed))
		tasks := Generate(rng, DefaultGenConfig(5, 0.6))
		a := vtime.Duration(aRaw % 200000000)
		b := vtime.Duration(bRaw % 200000000)
		if a > b {
			a, b = b, a
		}
		return demand(tasks, a, nil) <= demand(tasks, b, nil)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestViewChangeBlackoutTerm: the membership blackout is charged as a
// one-shot top-priority demand — a set feasible on pure task demand
// becomes infeasible when one failover window no longer fits before
// its deadlines, with the flip exactly at the slack boundary.
func TestViewChangeBlackoutTerm(t *testing.T) {
	tasks := []Task{{Name: "ctl", C: 2 * vtime.Millisecond, D: 10 * vtime.Millisecond, T: 10 * vtime.Millisecond, NumEU: 1}}
	ov := &Overheads{} // isolate the blackout term from cost inflation
	if v := EDFSpuri(tasks, ov); !v.Feasible {
		t.Fatalf("baseline infeasible: %+v", v)
	}
	// Slack before the 10 ms deadline is 8 ms: a blackout that exactly
	// fits still admits, one past it rejects.
	ov.ViewChangeBlackout = 8 * vtime.Millisecond
	if v := EDFSpuri(tasks, ov); !v.Feasible {
		t.Fatalf("blackout equal to the slack rejected: %+v", v)
	}
	ov.ViewChangeBlackout = 8*vtime.Millisecond + vtime.Microsecond
	v := EDFSpuri(tasks, ov)
	if v.Feasible {
		t.Fatal("blackout past the slack admitted — failover window not charged")
	}
	if v.FailAt != 10*vtime.Millisecond {
		t.Fatalf("failure at %s, want the 10ms deadline", v.FailAt)
	}
}
