package heug

import (
	"fmt"

	"hades/internal/vtime"
)

// SpuriTask is the task model of [Spu96] used in the paper's §5 example:
// sporadic tasks with arbitrary deadlines and resource sharing. Each task
// uses at most one resource S for a contiguous section of length CS,
// preceded by CBefore and followed by CAfter of plain computation
// (C = CBefore + CS + CAfter).
type SpuriTask struct {
	Name string
	Node int
	// CBefore, CS, CAfter decompose the worst-case computation time.
	CBefore, CS, CAfter vtime.Duration
	// Resource is the shared resource S; empty when CS is zero.
	Resource string
	// Deadline is D_i, relative to the activation request.
	Deadline vtime.Duration
	// PseudoPeriod is T_i, the minimum inter-arrival time.
	PseudoPeriod vtime.Duration
	// Blocking is B'_i, the worst-case blocking time the task can
	// experience due to resource sharing (under SRP: the longest outer
	// critical section of a task with a larger relative deadline).
	Blocking vtime.Duration
}

// c returns the task's total worst-case computation time.
func (s SpuriTask) c() vtime.Duration { return s.CBefore + s.CS + s.CAfter }

// Validate checks the shape ToHEUG can translate: some computation
// time, and a critical section exactly when a resource is named.
func (s SpuriTask) Validate() error {
	if s.c() <= 0 {
		return fmt.Errorf("heug: spuri task %q has no computation time", s.Name)
	}
	if s.CS > 0 && s.Resource == "" {
		return fmt.Errorf("heug: spuri task %q has a critical section but no resource", s.Name)
	}
	if s.CS == 0 && s.Resource != "" {
		return fmt.Errorf("heug: spuri task %q names resource %q but has no critical section", s.Name, s.Resource)
	}
	return nil
}

// ToHEUG performs the Figure 3 translation: the Spuri task becomes a
// three-unit chain
//
//	eu1 (w = c_before) → eu2 (w = cs, holding S) → eu3 (w = c_after)
//
// with the task deadline D = D_i and, on the first unit, the latest start
// time attribute set to B'_i: under SRP a job is blocked only before it
// starts, for at most B'_i, so a later start signals that the blocking
// budget assumed by the feasibility test was exceeded — exactly the kind
// of assumption-coverage monitoring §2.1 calls for.
//
// Units with zero cost are elided (a task that uses no resource becomes a
// single unit), so the translation is total on well-formed SpuriTasks.
func (s SpuriTask) ToHEUG() (*Task, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	b := NewTask(s.Name, SporadicEvery(s.PseudoPeriod)).WithDeadline(s.Deadline)
	var chain []string
	add := func(name string, w vtime.Duration, res []ResourceReq) {
		if w <= 0 {
			return
		}
		eu := CodeEU{Node: s.Node, WCET: w, Resources: res}
		if len(chain) == 0 && s.Blocking > 0 {
			eu.Latest = s.Blocking
		}
		b.Code(name, eu)
		chain = append(chain, name)
	}
	add(s.Name+".eu1", s.CBefore, nil)
	add(s.Name+".eu2", s.CS, []ResourceReq{{Resource: s.Resource, Mode: Exclusive}})
	add(s.Name+".eu3", s.CAfter, nil)
	b.chain(chain...)
	return b.Build()
}
