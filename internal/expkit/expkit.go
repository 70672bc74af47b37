// Package expkit implements the reproduction experiments that
// `hades exp -list` indexes: one function per paper figure/table plus
// the ablations, each returning a printable Table. The hades exp
// subcommand and the top-level BenchmarkExperiments are thin wrappers
// over Run, so the experiment logic lives in exactly one place.
package expkit

import (
	"fmt"
	"sort"
	"strings"
)

// Table is a rendered experiment result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// String renders the table with aligned columns.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, cell := range r {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteString("\n")
	for _, r := range t.Rows {
		writeRow(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Options tunes experiment scale.
type Options struct {
	// Quick shrinks sample counts for fast test runs.
	Quick bool
	// Seed is the base seed for all randomised experiments.
	Seed int64
}

// Runner is one experiment entry point.
type Runner func(Options) Table

// registry maps experiment IDs to runners.
var registry = map[string]Runner{
	"F1": runF1, "F2": runF2, "F3": runF3, "S5": runS5, "T1": runT1, "T2": runT2,
	"X1": runX1, "X2": runX2, "X3": runX3, "X4": runX4, "X5": runX5, "X6": runX6, "X7": runX7,
}

// IDs returns the registered experiment IDs, sorted.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by ID.
func Run(id string, opts Options) (Table, error) {
	r, ok := registry[id]
	if !ok {
		return Table{}, fmt.Errorf("expkit: unknown experiment %q (have %s)", id, strings.Join(IDs(), ", "))
	}
	return r(opts), nil
}

// RunAll executes every experiment in ID order.
func RunAll(opts Options) []Table {
	out := make([]Table, 0, len(registry))
	for _, id := range IDs() {
		t, _ := Run(id, opts)
		out = append(out, t)
	}
	return out
}

func pct(num, den int) string {
	if den == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(num)/float64(den))
}
