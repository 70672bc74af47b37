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
	if s.level("a") <= s.level("b") {
		t.Fatal("shorter deadline must have higher preemption level")
	}
	if s.ceiling(0, "R") != s.level("a") {
		t.Fatalf("ceiling(R) = %d, want %d (max user level)", s.ceiling(0, "R"), s.level("a"))
	}
	if s.systemCeiling(0) != 0 {
		t.Fatal("system ceiling must start at 0")
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
	if p.ceiling(0, "R") != 9 {
		t.Fatalf("PCP ceiling = %d, want 9", p.ceiling(0, "R"))
	}
}
