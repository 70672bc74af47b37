package dispatcher_test

import (
	"fmt"
	"strings"
	"testing"

	"hades/internal/cluster"
	"hades/internal/dispatcher"
	"hades/internal/heug"
	"hades/internal/monitor"
	"hades/internal/sched"
	"hades/internal/vtime"
)

const (
	us = vtime.Microsecond
	ms = vtime.Millisecond
)

// TestFigure2EDFCooperation reproduces Figure 2 of the paper: two
// threads t1 and t2 under an EDF scheduler thread t_edf at the highest
// priority.
//
//	t = 0:    t1 activates (deadline far away) and runs.
//	t = 2ms:  t2 activates with a shorter deadline. The dispatcher
//	          inserts Atv(t2) into the shared FIFO; t_edf preempts t1,
//	          processes the notification and — deadline(t2) <
//	          deadline(t1) — raises t2 above t1 via the dispatcher
//	          primitive. t2 preempts t1 and runs to completion.
//	then:     Trm(t2) is enqueued; EDF ignores it (no reordering among
//	          the survivors); t1, now highest, resumes and completes.
func TestFigure2EDFCooperation(t *testing.T) {
	sys := cluster.New(cluster.Config{Seed: 1})
	edf := sched.NewEDF(20 * us)
	app := sys.NewApp("fig2", edf, nil)

	t1 := heug.NewTask("t1", heug.AperiodicLaw()).
		WithDeadline(20*ms).
		Code("eu", heug.CodeEU{Node: 0, WCET: 5 * ms}).
		MustBuild()
	t2 := heug.NewTask("t2", heug.AperiodicLaw()).
		WithDeadline(4*ms).
		Code("eu", heug.CodeEU{Node: 0, WCET: 1 * ms}).
		MustBuild()
	app.MustAddTask(t1)
	app.MustAddTask(t2)
	app.Seal()

	sys.ActivateAt("t1", 0)
	sys.ActivateAt("t2", vtime.Time(2*ms))
	rep := sys.Run(30 * ms)

	if rep.Stats.DeadlineMisses != 0 {
		t.Fatalf("misses: %d", rep.Stats.DeadlineMisses)
	}
	if rep.Stats.Completions != 2 {
		t.Fatalf("completions: %d", rep.Stats.Completions)
	}

	// Verify the cooperation trace shape.
	var seq []string
	for _, e := range sys.Log().Events() {
		switch e.Kind {
		case monitor.KindNotification:
			seq = append(seq, "notif:"+e.Subject+":"+e.Detail)
		case monitor.KindThreadStart, monitor.KindThreadPreempt, monitor.KindThreadResume:
			if strings.HasPrefix(e.Subject, "t1#") || strings.HasPrefix(e.Subject, "t2#") {
				seq = append(seq, e.Kind.String()+":"+e.Subject[:2])
			}
		case monitor.KindThreadFinish:
			if strings.HasPrefix(e.Subject, "t1#") || strings.HasPrefix(e.Subject, "t2#") {
				seq = append(seq, "Trm-evt:"+e.Subject[:2])
			}
		}
	}
	trace := strings.Join(seq, " | ")
	mustContainInOrder(t, trace,
		"notif:Atv:t1#1.eu", // activation notification for t1
		"Start:t1",          // t1 runs
		"notif:Atv:t2#1.eu", // t2 activation hits the FIFO
		"Preempt:t1",        // scheduler (then t2) preempts t1
		"Start:t2",          // t2 has the shorter deadline: runs
		"Trm-evt:t2",        // t2 finishes
		"Resume:t1",         // t1 continues
		"Trm-evt:t1",
	)

	// The scheduler actually ran and changed priorities.
	if n := sys.Log().CountKind(monitor.KindSchedulerRun); n < 3 {
		t.Errorf("scheduler ran %d times, want >= 3 (Atv t1, Atv t2, Trm t2 ...)", n)
	}
	if n := sys.Log().CountKind(monitor.KindPriorityChange); n < 1 {
		t.Errorf("no priority changes recorded")
	}
}

func mustContainInOrder(t *testing.T, trace string, parts ...string) {
	t.Helper()
	rest := trace
	for _, p := range parts {
		i := strings.Index(rest, p)
		if i < 0 {
			t.Fatalf("trace missing %q (in order).\nTrace: %s", p, trace)
		}
		rest = rest[i+len(p):]
	}
}

// TestFigure2WithCosts re-runs the scenario with the full §4 cost book:
// the trace keeps its shape and response times grow by the accounted
// overheads only. Every thread that carries dispatcher work is named
// for the work it carries when it carries it, though a scheduler host
// and an instance each reuse one kernel thread for all of theirs.
func TestFigure2WithCosts(t *testing.T) {
	var log *monitor.Log
	run := func(costs dispatcher.CostBook) cluster.Result {
		sys := cluster.New(cluster.Config{Seed: 1, Costs: costs})
		log = sys.Log()
		app := sys.NewApp("fig2", sched.NewEDF(20*us), nil)
		t1 := heug.NewTask("t1", heug.AperiodicLaw()).
			WithDeadline(20*ms).
			Code("eu", heug.CodeEU{Node: 0, WCET: 5 * ms}).
			MustBuild()
		t2 := heug.NewTask("t2", heug.AperiodicLaw()).
			WithDeadline(4*ms).
			Code("eu", heug.CodeEU{Node: 0, WCET: 1 * ms}).
			MustBuild()
		app.MustAddTask(t1)
		app.MustAddTask(t2)
		app.Seal()
		sys.ActivateAt("t1", 0)
		sys.ActivateAt("t2", vtime.Time(2*ms))
		return sys.Run(30 * ms)
	}
	free := run(dispatcher.ZeroCostBook())
	costed := run(dispatcher.DefaultCostBook())
	if free.Stats.DeadlineMisses != 0 || costed.Stats.DeadlineMisses != 0 {
		t.Fatal("unexpected misses")
	}
	for i := range costed.Tasks {
		if costed.Tasks[i].MaxResponse <= free.Tasks[i].MaxResponse {
			t.Errorf("task %s: costed response %s not above free response %s",
				costed.Tasks[i].Name, costed.Tasks[i].MaxResponse, free.Tasks[i].MaxResponse)
		}
		// Overheads are bounded: within 1ms of the ideal here.
		if costed.Tasks[i].MaxResponse > free.Tasks[i].MaxResponse+ms {
			t.Errorf("task %s: overhead exploded: %s vs %s",
				costed.Tasks[i].Name, costed.Tasks[i].MaxResponse, free.Tasks[i].MaxResponse)
		}
	}

	// The costed run's thread starts: each notification's scheduler
	// thread under its own number, each instance's C_start_inv and
	// C_end_inv under their own suffix.
	var sched, kwork []string
	for _, e := range log.Events() {
		switch {
		case e.Kind != monitor.KindThreadStart:
		case strings.HasPrefix(e.Subject, "sched."):
			sched = append(sched, e.Subject)
		case strings.HasSuffix(e.Subject, "inv"):
			kwork = append(kwork, e.Subject)
		}
	}
	if runs := log.CountKind(monitor.KindSchedulerRun); len(sched) != runs || runs < 3 {
		t.Fatalf("%d scheduler threads started for %d notifications handled", len(sched), runs)
	}
	for i, name := range sched {
		if want := fmt.Sprintf("sched.fig2@n0#%d", i+1); name != want {
			t.Errorf("scheduler thread %d started as %q, want %q", i+1, name, want)
		}
	}
	mustContainInOrder(t, strings.Join(kwork, " | "),
		"t1#1.startinv", "t2#1.startinv", "t2#1.endinv", "t1#1.endinv")
	if len(kwork) != 4 {
		t.Errorf("kernel-work threads started: %v, want a start and an end per instance", kwork)
	}
}
