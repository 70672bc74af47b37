package sched

import (
	"testing"

	"hades/internal/heug"
	"hades/internal/vtime"
)

func TestSRPLevelsAndCeilings(t *testing.T) {
	a := heug.NewTask("a", heug.SporadicEvery(50*vtime.Millisecond)).
		WithDeadline(10*vtime.Millisecond).
		Code("e", heug.CodeEU{Node: 0, WCET: vtime.Microsecond,
			Resources: []heug.ResourceReq{{Resource: "R", Mode: heug.Exclusive}}}).MustBuild()
	b := heug.NewTask("b", heug.SporadicEvery(50*vtime.Millisecond)).
		WithDeadline(40*vtime.Millisecond).
		Code("e", heug.CodeEU{Node: 0, WCET: vtime.Microsecond,
			Resources: []heug.ResourceReq{{Resource: "R", Mode: heug.Exclusive}}}).MustBuild()
	s := NewSRP()
	s.Init([]*heug.Task{a, b}, nil)
	if s.levels["a"] <= s.levels["b"] {
		t.Fatal("shorter deadline must have higher preemption level")
	}
	if s.Ceiling(0, "R") != s.levels["a"] {
		t.Fatalf("ceiling(R) = %d, want %d (max user level)", s.Ceiling(0, "R"), s.levels["a"])
	}
}

func TestPCPCeilings(t *testing.T) {
	a := heug.NewTask("a", heug.SporadicEvery(50*vtime.Millisecond)).
		WithDeadline(10*vtime.Millisecond).
		Code("e", heug.CodeEU{Node: 0, WCET: vtime.Microsecond, Prio: 9,
			Resources: []heug.ResourceReq{{Resource: "R", Mode: heug.Exclusive}}}).MustBuild()
	b := heug.NewTask("b", heug.SporadicEvery(50*vtime.Millisecond)).
		WithDeadline(40*vtime.Millisecond).
		Code("e", heug.CodeEU{Node: 0, WCET: vtime.Microsecond, Prio: 3,
			Resources: []heug.ResourceReq{{Resource: "R", Mode: heug.Exclusive}}}).MustBuild()
	p := NewPCP()
	p.Init([]*heug.Task{a, b}, nil)
	if p.Ceiling(0, "R") != 9 {
		t.Fatalf("PCP ceiling = %d, want 9", p.Ceiling(0, "R"))
	}
}
