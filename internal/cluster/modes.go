package cluster

import (
	"fmt"

	"hades/internal/heug"
	"hades/internal/monitor"
)

// Operational modes implement the low-level fault-tolerance mechanism
// §3.2.1 assigns to the dispatcher: "switching of modes of operation in
// case of failure [Mos94]". A mode names a set of tasks whose
// activation generators run while the mode is active; switching modes
// stops the old generators, optionally aborts the old mode's live
// instances (orphaning their threads), and starts the new set — e.g. a
// degraded local-control mode after a network or node failure.

// DefineMode declares a mode as a set of task names. Tasks must already
// be registered. Periodic tasks get timer generators on entry; sporadic
// ones worst-case generators; aperiodic ones are activated by events
// only.
func (c *Cluster) DefineMode(name string, tasks ...string) error {
	c.build()
	if _, dup := c.modes[name]; dup {
		return fmt.Errorf("cluster: mode %q already defined", name)
	}
	for _, task := range tasks {
		if _, ok := c.disp.Task(task); !ok {
			return fmt.Errorf("cluster: mode %q references unknown task %q", name, task)
		}
	}
	c.modes[name] = tasks
	return nil
}

// CurrentMode returns the active mode name ("" before EnterMode).
func (c *Cluster) CurrentMode() string { return c.mode }

// EnterMode activates a mode's generators. Call once to start; use
// SwitchMode afterwards.
func (c *Cluster) EnterMode(name string) error {
	tasks, ok := c.modes[name]
	if !ok {
		return fmt.Errorf("cluster: unknown mode %q", name)
	}
	c.mode = name
	c.eng.Recordf(monitor.KindFailover, -1, "mode", "enter %q", name)
	for _, task := range tasks {
		tr, _ := c.disp.Task(task)
		if law := tr.Task.Arrival; law.Kind != heug.Aperiodic { // aperiodic: event-driven only
			c.startGenerator(task, law)
		}
	}
	return nil
}

// SwitchMode stops the current mode's generators and enters the new
// mode. When abortLive is true, live instances of the old mode's tasks
// are cancelled — their threads become orphans, per §3.2.1 — so the new
// mode starts from a clean slate (a safety-critical mode change).
// It returns the number of instances aborted.
func (c *Cluster) SwitchMode(name string, abortLive bool) (int, error) {
	if _, ok := c.modes[name]; !ok {
		return 0, fmt.Errorf("cluster: unknown mode %q", name)
	}
	old := c.modes[c.mode]
	c.modeEpoch++ // stops every generator of the mode being left
	aborted := 0
	if abortLive {
		for _, task := range old {
			aborted += c.disp.CancelLive(task, "mode switch")
		}
	}
	c.eng.Recordf(monitor.KindFailover, -1, "mode",
		"switch %q -> %q (aborted %d)", c.mode, name, aborted)
	return aborted, c.EnterMode(name)
}

// startGenerator runs one periodic/worst-case-sporadic activation loop
// that ends at the next SwitchMode.
func (c *Cluster) startGenerator(task string, law heug.Arrival) {
	epoch := c.modeEpoch
	// First activation: immediately if the mode is entered mid-run,
	// respecting the offset only at time zero.
	delay := law.Offset
	if c.eng.Now() > 0 {
		delay = 0
	}
	c.drive(task, delay, law.Period, nil, func() bool { return epoch == c.modeEpoch })
}
