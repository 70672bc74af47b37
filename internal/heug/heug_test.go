package heug

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"hades/internal/vtime"
)

const (
	us = vtime.Microsecond
	ms = vtime.Millisecond
)

func TestBuilderLinearChain(t *testing.T) {
	task, err := NewTask("pipeline", PeriodicEvery(10*ms)).
		WithDeadline(10*ms).
		Code("read", CodeEU{Node: 0, WCET: 100 * us}).
		Code("proc", CodeEU{Node: 0, WCET: 300 * us}).
		Code("write", CodeEU{Node: 0, WCET: 50 * us}).
		chain("read", "proc", "write").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(task.EUs) != 3 || len(task.Edges) != 2 {
		t.Fatalf("EUs=%d edges=%d", len(task.EUs), len(task.Edges))
	}
	if got := task.TotalWCET(); got != 450*us {
		t.Fatalf("TotalWCET = %s, want 450us", got)
	}
	if len(task.Preds(0)) != 0 || len(task.Preds(1)) != 1 || len(task.succs[1]) != 1 {
		t.Fatal("adjacency wrong")
	}
}

func TestBuilderErrors(t *testing.T) {
	tests := []struct {
		name  string
		build func() (*Task, error)
		match string
	}{
		{
			"duplicate EU",
			func() (*Task, error) {
				return NewTask("x", AperiodicLaw()).
					Code("a", CodeEU{WCET: us}).
					Code("a", CodeEU{WCET: us}).Build()
			},
			"duplicate EU",
		},
		{
			"unknown precedence source",
			func() (*Task, error) {
				return NewTask("x", AperiodicLaw()).
					Code("a", CodeEU{WCET: us}).
					Precede("nope", "a").Build()
			},
			"not defined",
		},
		{
			"zero WCET",
			func() (*Task, error) {
				return NewTask("x", AperiodicLaw()).
					Code("a", CodeEU{WCET: 0}).Build()
			},
			"positive WCET",
		},
		{
			"empty task",
			func() (*Task, error) {
				return NewTask("x", AperiodicLaw()).Build()
			},
			"no elementary units",
		},
		{
			"periodic without period",
			func() (*Task, error) {
				return NewTask("x", Arrival{Kind: Periodic}).
					Code("a", CodeEU{WCET: us}).Build()
			},
			"positive period",
		},
		{
			"pt below prio",
			func() (*Task, error) {
				return NewTask("x", AperiodicLaw()).
					Code("a", CodeEU{WCET: us, Prio: 10, PT: 5}).Build()
			},
			"preemption threshold",
		},
		{
			"duplicate resource request",
			func() (*Task, error) {
				return NewTask("x", AperiodicLaw()).
					Code("a", CodeEU{WCET: us, Resources: []ResourceReq{
						{Resource: "r", Mode: Exclusive},
						{Resource: "r", Mode: Shared},
					}}).Build()
			},
			"twice",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := tt.build()
			if err == nil {
				t.Fatal("expected error")
			}
			if !strings.Contains(err.Error(), tt.match) {
				t.Fatalf("error %q does not contain %q", err, tt.match)
			}
		})
	}
}

func TestCycleDetection(t *testing.T) {
	_, err := NewTask("cyc", AperiodicLaw()).
		Code("a", CodeEU{WCET: us}).
		Code("b", CodeEU{WCET: us}).
		Code("c", CodeEU{WCET: us}).
		Precede("a", "b").
		Precede("b", "c").
		Precede("c", "a").
		Build()
	if !errors.Is(err, ErrNotDAG) {
		t.Fatalf("err = %v, want ErrNotDAG", err)
	}
}

func TestSelfLoopRejected(t *testing.T) {
	task := &Task{
		Name:    "x",
		Arrival: AperiodicLaw(),
		EUs:     []*EU{{Name: "a", Code: &CodeEU{WCET: us}}},
		Edges:   []Edge{{From: 0, To: 0}},
	}
	if err := task.Validate(); err == nil || !strings.Contains(err.Error(), "self-loop") {
		t.Fatalf("err = %v, want self-loop", err)
	}
}

func TestRemoteEdgeDetection(t *testing.T) {
	task := NewTask("dist", AperiodicLaw()).
		Code("a", CodeEU{Node: 0, WCET: us}).
		Code("b", CodeEU{Node: 1, WCET: us}).
		Code("c", CodeEU{Node: 1, WCET: us}).
		Precede("a", "b", "x").
		Precede("b", "c").
		MustBuild()
	if !task.IsRemote(0) {
		t.Error("a->b crosses nodes: should be remote")
	}
	if task.IsRemote(1) {
		t.Error("b->c is node-local")
	}
}

// Property: random DAGs (edges only forward) always validate.
func TestRandomDAGValidation(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nRaw%12)
		b := NewTask("rand", AperiodicLaw())
		names := make([]string, n)
		for i := 0; i < n; i++ {
			names[i] = "eu" + string(rune('A'+i))
			b.Code(names[i], CodeEU{WCET: vtime.Duration(1+rng.Intn(1000)) * us})
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(4) == 0 {
					b.Precede(names[i], names[j])
				}
			}
		}
		_, err := b.Build()
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSpuriTranslationFigure3(t *testing.T) {
	st := SpuriTask{
		Name:         "tau",
		Node:         2,
		CBefore:      100 * us,
		CS:           50 * us,
		CAfter:       70 * us,
		Resource:     "S",
		Deadline:     5 * ms,
		PseudoPeriod: 10 * ms,
		Blocking:     200 * us,
	}
	task, err := st.ToHEUG()
	if err != nil {
		t.Fatal(err)
	}
	// Figure 3 shape: three chained Code_EUs.
	if len(task.EUs) != 3 {
		t.Fatalf("EUs = %d, want 3", len(task.EUs))
	}
	if len(task.Edges) != 2 {
		t.Fatalf("edges = %d, want 2", len(task.Edges))
	}
	eu1, eu2, eu3 := task.EUs[0].Code, task.EUs[1].Code, task.EUs[2].Code
	if eu1.WCET != 100*us || eu2.WCET != 50*us || eu3.WCET != 70*us {
		t.Fatal("WCET split wrong")
	}
	// eu2 holds S exclusively.
	if len(eu2.Resources) != 1 || eu2.Resources[0].Resource != "S" || eu2.Resources[0].Mode != Exclusive {
		t.Fatalf("eu2 resources = %+v", eu2.Resources)
	}
	if len(eu1.Resources) != 0 || len(eu3.Resources) != 0 {
		t.Fatal("eu1/eu3 must not hold resources")
	}
	// latest = B'_i on the first unit; D = D_i on the task.
	if eu1.Latest != 200*us {
		t.Fatalf("eu1.Latest = %s, want 200us", eu1.Latest)
	}
	if task.Deadline != 5*ms {
		t.Fatalf("task deadline = %s", task.Deadline)
	}
	if task.Arrival.Kind != Sporadic || task.Arrival.Period != 10*ms {
		t.Fatalf("arrival = %+v", task.Arrival)
	}
	// All on the same node.
	for _, e := range task.EUs {
		if e.Code.Node != 2 {
			t.Fatal("node placement lost")
		}
	}
}

func TestSpuriTranslationNoResource(t *testing.T) {
	st := SpuriTask{Name: "plain", CBefore: 500 * us, Deadline: ms, PseudoPeriod: 2 * ms}
	task, err := st.ToHEUG()
	if err != nil {
		t.Fatal(err)
	}
	if len(task.EUs) != 1 || len(task.Edges) != 0 {
		t.Fatalf("plain task: EUs=%d edges=%d, want 1/0", len(task.EUs), len(task.Edges))
	}
}

func TestSpuriTranslationErrors(t *testing.T) {
	if _, err := (SpuriTask{Name: "bad"}).ToHEUG(); err == nil {
		t.Error("zero computation accepted")
	}
	if _, err := (SpuriTask{Name: "bad", CS: us, Deadline: ms, PseudoPeriod: ms}).ToHEUG(); err == nil {
		t.Error("critical section without resource accepted")
	}
	if _, err := (SpuriTask{Name: "bad", CBefore: us, Resource: "S", Deadline: ms, PseudoPeriod: ms}).ToHEUG(); err == nil {
		t.Error("resource without critical section accepted")
	}
}

// Property: the Figure 3 translation preserves total WCET and always
// yields a valid chain. The deadline and pseudo-period sums are taken in
// vtime.Duration so no input wraps them; the explicit case is one whose
// uint16 sum wraps the pseudo-period to 0.
func TestSpuriTranslationPreservesWCET(t *testing.T) {
	f := func(b, cs, a uint16) bool {
		c := vtime.Duration(b) + vtime.Duration(cs) + vtime.Duration(a)
		st := SpuriTask{
			Name:         "q",
			CBefore:      vtime.Duration(b) * us,
			CS:           vtime.Duration(cs) * us,
			CAfter:       vtime.Duration(a) * us,
			Deadline:     (c + 1000) * us,
			PseudoPeriod: (c + 2000) * us,
		}
		if st.CS > 0 {
			st.Resource = "S"
		}
		task, err := st.ToHEUG()
		if st.c() == 0 {
			return err != nil
		}
		if err != nil {
			return false
		}
		return task.TotalWCET() == st.c()
	}
	if !f(0xc4ea, 0x40f5, 0xf251) {
		t.Error("property fails at (0xc4ea, 0x40f5, 0xf251)")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestArrivalConstructors(t *testing.T) {
	if PeriodicEvery(ms).Kind != Periodic {
		t.Error("PeriodicEvery kind")
	}
	if SporadicEvery(ms).Kind != Sporadic {
		t.Error("SporadicEvery kind")
	}
	if AperiodicLaw().Kind != Aperiodic {
		t.Error("AperiodicLaw kind")
	}
	for _, k := range []ArrivalKind{Periodic, Sporadic, Aperiodic} {
		if k.String() == "unknown" {
			t.Errorf("kind %d has no name", k)
		}
	}
}
