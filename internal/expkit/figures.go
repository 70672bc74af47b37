package expkit

import (
	"fmt"
	"strings"

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

// runF1 reproduces Figure 1's layering claim operationally: multiple
// applications with different schedulers (RM, EDF, best-effort) run on
// the same generic dispatcher and COTS substrate, simultaneously, with
// the guaranteed apps meeting every deadline.
func runF1(opts Options) Table {
	sys := newCluster(3, opts.Seed, dispatcher.DefaultCostBook())

	rmApp := sys.NewApp("appli1-RM", sched.NewRM(), sched.NewPCP())
	rmApp.MustAddTask(heug.NewTask("rm.sensor", heug.PeriodicEvery(10*ms)).
		WithDeadline(10*ms).
		Code("read", heug.CodeEU{Node: 0, WCET: 400 * us,
			Resources: []heug.ResourceReq{{Resource: "bus", Mode: heug.Exclusive}}}).
		MustBuild())
	rmApp.MustAddTask(heug.NewTask("rm.control", heug.PeriodicEvery(20*ms)).
		WithDeadline(20*ms).
		Code("law", heug.CodeEU{Node: 0, WCET: 2 * ms,
			Resources: []heug.ResourceReq{{Resource: "bus", Mode: heug.Exclusive}}}).
		MustBuild())
	rmApp.Seal()

	edfApp := sys.NewApp("appli2-EDF", sched.NewEDF(20*us), sched.NewSRP())
	edfApp.MustAddTask(heug.NewTask("edf.acquire", heug.SporadicEvery(15*ms)).
		WithDeadline(12*ms).
		Code("sample", heug.CodeEU{Node: 1, WCET: 1 * ms}).
		Code("ship", heug.CodeEU{Node: 2, WCET: 500 * us}).
		Precede("sample", "ship").
		MustBuild())
	edfApp.MustAddTask(heug.NewTask("edf.actuate", heug.SporadicEvery(30*ms)).
		WithDeadline(25*ms).
		Code("decide", heug.CodeEU{Node: 1, WCET: 3 * ms}).
		MustBuild())
	edfApp.Seal()

	beApp := sys.NewApp("appli3-BE", sched.NewBestEffort(0), nil)
	beApp.MustAddTask(heug.NewTask("be.logger", heug.PeriodicEvery(5*ms)).
		Code("log", heug.CodeEU{Node: 0, WCET: 1 * ms}).
		MustBuild())
	beApp.Seal()

	for _, task := range []string{"rm.sensor", "rm.control", "be.logger"} {
		if err := sys.StartPeriodic(task); err != nil {
			panic(err)
		}
	}
	for _, task := range []string{"edf.acquire", "edf.actuate"} {
		if err := sys.StartSporadicWorstCase(task); err != nil {
			panic(err)
		}
	}
	horizon := vtime.Duration(1) * vtime.Second
	if opts.Quick {
		horizon = 200 * ms
	}
	rep := sys.Run(horizon)

	tbl := Table{
		ID:      "F1",
		Title:   "Figure 1 — three applications, three schedulers, one dispatcher (3 nodes)",
		Columns: []string{"task", "scheduler", "activations", "completions", "misses", "max response"},
	}
	schedOf := map[string]string{
		"rm.sensor": "RM", "rm.control": "RM",
		"edf.acquire": "EDF", "edf.actuate": "EDF",
		"be.logger": "best-effort",
	}
	for _, tr := range rep.Tasks {
		tbl.Rows = append(tbl.Rows, []string{
			tr.Name, schedOf[tr.Name],
			fmt.Sprint(tr.Activations), fmt.Sprint(tr.Completions),
			fmt.Sprint(tr.Misses), tr.MaxResponse.String(),
		})
	}
	tbl.Notes = append(tbl.Notes,
		fmt.Sprintf("guaranteed apps (RM, EDF) misses: %d — the flexibility claim of §2.2.1", guaranteedMisses(rep)),
		fmt.Sprintf("events processed: %d, violations: %d", sys.Engine().EventsFired(), len(rep.Violations)))
	return tbl
}

func guaranteedMisses(rep cluster.Result) int {
	n := 0
	for _, tr := range rep.Tasks {
		if tr.Name != "be.logger" {
			n += tr.Misses
		}
	}
	return n
}

// figure2Trace runs the Figure 2 scenario and returns the annotated
// event sequence (also used by the F2 golden test and bench).
func figure2Trace(seed int64) (cluster.Result, []string) {
	sys := newCluster(1, seed, dispatcher.DefaultCostBook())
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
	rep := sys.Run(30 * ms)

	var lines []string
	for _, e := range sys.Log().Events() {
		switch e.Kind {
		case monitor.KindNotification, monitor.KindSchedulerRun,
			monitor.KindPriorityChange, monitor.KindThreadStart,
			monitor.KindThreadPreempt, monitor.KindThreadResume,
			monitor.KindThreadFinish, monitor.KindTaskComplete:
			if strings.HasPrefix(e.Subject, "t1") || strings.HasPrefix(e.Subject, "t2") ||
				strings.Contains(e.Subject, "EDF") || strings.Contains(e.Detail, "t1") ||
				strings.Contains(e.Detail, "t2") {
				lines = append(lines, e.String())
			}
		}
	}
	return rep, lines
}

// runF2 reproduces Figure 2: the cooperation between the EDF scheduler
// and the dispatcher, as an annotated trace.
func runF2(opts Options) Table {
	rep, lines := figure2Trace(opts.Seed)
	tbl := Table{
		ID:      "F2",
		Title:   "Figure 2 — EDF scheduler/dispatcher cooperation trace",
		Columns: []string{"trace"},
	}
	for _, l := range lines {
		tbl.Rows = append(tbl.Rows, []string{l})
	}
	tbl.Notes = append(tbl.Notes,
		fmt.Sprintf("deadline misses: %d (both threads meet their deadlines, as in the figure)", rep.Stats.DeadlineMisses),
		"shape: Atv(t2) -> scheduler preempts -> priority changes -> t2 runs -> Trm(t2) -> t1 resumes")
	return tbl
}

// runF3 reproduces Figure 3: the translation of a Spuri task into the
// HEUG model, dumped structurally.
func runF3(Options) Table {
	st := heug.SpuriTask{
		Name:         "tau_i",
		Node:         0,
		CBefore:      2 * ms,
		CS:           1 * ms,
		CAfter:       1500 * us,
		Resource:     "S",
		Deadline:     20 * ms,
		PseudoPeriod: 25 * ms,
		Blocking:     3 * ms,
	}
	task, err := st.ToHEUG()
	if err != nil {
		panic(err)
	}
	tbl := Table{
		ID:      "F3",
		Title:   "Figure 3 — Spuri task model to HEUG translation",
		Columns: []string{"EU", "WCET", "resources", "latest", "preds"},
	}
	for i, eu := range task.EUs {
		res := "-"
		if len(eu.Code.Resources) > 0 {
			res = eu.Code.Resources[0].Resource + " (" + eu.Code.Resources[0].Mode.String() + ")"
		}
		latest := "-"
		if eu.Code.Latest > 0 {
			latest = eu.Code.Latest.String()
		}
		var preds []string
		for _, p := range task.Preds(i) {
			preds = append(preds, task.EUs[p].Name)
		}
		pstr := strings.Join(preds, ",")
		if pstr == "" {
			pstr = "-"
		}
		tbl.Rows = append(tbl.Rows, []string{eu.Name, eu.Code.WCET.String(), res, latest, pstr})
	}
	tbl.Notes = append(tbl.Notes,
		fmt.Sprintf("task deadline D=%s, pseudo-period T=%s, arrival law %s", task.Deadline, task.Arrival.Period, task.Arrival.Kind),
		"w1=c_before, w2=cs (holding S), w3=c_after; latest=B'_i on eu1 — matches Figure 3")
	return tbl
}
