package monitor

import (
	"fmt"
	"sort"
	"strings"

	"hades/internal/vtime"
)

// interval is one contiguous CPU occupancy of a thread.
type interval struct {
	thread string
	from   vtime.Time
	to     vtime.Time
}

// Gantt renders per-thread CPU occupancy on one node as a text chart —
// the visual shape of Figure 2. Each row is one thread; each column
// cell covers (to−from)/width of virtual time; '█' marks occupancy.
// Threads are ordered by first execution.
func (l *Log) Gantt(node int, from, to vtime.Time, width int) string {
	return chart(l.intervals(node), node, from, to, width)
}

// chart renders a node's intervals, sorted by start, as Gantt does.
func chart(intervals []interval, node int, from, to vtime.Time, width int) string {
	if width <= 0 {
		width = 72
	}
	if len(intervals) == 0 {
		return "(no execution on node)\n"
	}
	if to <= from {
		from, to = intervals[0].from, intervals[len(intervals)-1].to
	}
	span := to.Sub(from)
	if span <= 0 {
		return "(empty window)\n"
	}

	var order []string
	rows := map[string][]interval{}
	for _, iv := range intervals {
		if iv.to <= from || iv.from >= to {
			continue
		}
		if _, seen := rows[iv.thread]; !seen {
			order = append(order, iv.thread)
		}
		rows[iv.thread] = append(rows[iv.thread], iv)
	}

	nameW := 0
	for _, n := range order {
		if len(n) > nameW {
			nameW = len(n)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-*s %s .. %s (node %d)\n", nameW, "", from, to, node)
	for _, name := range order {
		cells := make([]byte, width)
		for i := range cells {
			cells[i] = ' '
		}
		for _, iv := range rows[name] {
			lo, hi := iv.from, iv.to
			if lo < from {
				lo = from
			}
			if hi > to {
				hi = to
			}
			c0 := int(int64(lo.Sub(from)) * int64(width) / int64(span))
			c1 := int(int64(hi.Sub(from)) * int64(width) / int64(span))
			if c1 == c0 {
				c1 = c0 + 1
			}
			for c := c0; c < c1 && c < width; c++ {
				cells[c] = '#'
			}
		}
		fmt.Fprintf(&b, "%-*s |%s|\n", nameW, name, cells)
	}
	return b.String()
}

// intervals reconstructs execution intervals from Start/Resume →
// Preempt/Trm event pairs on one node.
func (l *Log) intervals(node int) []interval {
	if l == nil {
		return nil
	}
	running := map[string]vtime.Time{}
	var out []interval
	for _, c := range l.chunks {
		for i := range c.recs {
			r := &c.recs[i]
			if int(r.node) != node {
				continue
			}
			switch r.kind {
			case KindThreadStart, KindThreadResume:
				thread := c.subject(i)
				if _, on := running[thread]; !on {
					running[thread] = r.at
				}
			case KindThreadPreempt, KindThreadFinish:
				thread := c.subject(i)
				if since, on := running[thread]; on {
					delete(running, thread)
					if r.at > since {
						out = append(out, interval{thread: thread, from: since, to: r.at})
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].from < out[j].from })
	return out
}
