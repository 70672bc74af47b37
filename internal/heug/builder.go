package heug

import (
	"fmt"

	"hades/internal/vtime"
)

// Builder assembles a Task fluently. All errors are accumulated and
// reported by Build, so call sites stay linear.
//
//	t, err := heug.NewTask("control", heug.PeriodicEvery(10*vtime.Millisecond)).
//		WithDeadline(10*vtime.Millisecond).
//		Code("read", heug.CodeEU{Node: 0, WCET: 200 * vtime.Microsecond}).
//		Code("law", heug.CodeEU{Node: 0, WCET: 800 * vtime.Microsecond}).
//		Precede("read", "law", "sample").
//		Build()
type Builder struct {
	task *Task
	errs []error
}

// NewTask starts building a task with the given name and arrival law.
func NewTask(name string, arrival Arrival) *Builder {
	return &Builder{task: &Task{Name: name, Arrival: arrival}}
}

// WithDeadline sets the task deadline D (relative to activation).
func (b *Builder) WithDeadline(d vtime.Duration) *Builder {
	b.task.Deadline = d
	return b
}

// Code appends a Code_EU under the given unit name.
func (b *Builder) Code(name string, eu CodeEU) *Builder {
	if b.task.euIndex(name) >= 0 {
		b.errs = append(b.errs, fmt.Errorf("duplicate EU name %q", name))
		return b
	}
	c := eu
	b.task.EUs = append(b.task.EUs, &EU{Name: name, Code: &c})
	return b
}

// Precede adds a precedence constraint from unit `from` to unit `to`,
// transferring the named parameters.
func (b *Builder) Precede(from, to string, params ...string) *Builder {
	fi, ti := b.task.euIndex(from), b.task.euIndex(to)
	if fi < 0 {
		b.errs = append(b.errs, fmt.Errorf("precedence source %q not defined", from))
		return b
	}
	if ti < 0 {
		b.errs = append(b.errs, fmt.Errorf("precedence destination %q not defined", to))
		return b
	}
	b.task.Edges = append(b.task.Edges, Edge{From: fi, To: ti, Params: params})
	return b
}

// chain adds precedence constraints linking each named unit to the next.
func (b *Builder) chain(names ...string) *Builder {
	for i := 0; i+1 < len(names); i++ {
		b.Precede(names[i], names[i+1])
	}
	return b
}

// Build validates and returns the task.
func (b *Builder) Build() (*Task, error) {
	if len(b.errs) > 0 {
		return nil, fmt.Errorf("heug: task %q: %w", b.task.Name, b.errs[0])
	}
	if err := b.task.Validate(); err != nil {
		return nil, err
	}
	return b.task, nil
}

// MustBuild is Build for static task definitions; it panics on error.
func (b *Builder) MustBuild() *Task {
	t, err := b.Build()
	if err != nil {
		panic(err)
	}
	return t
}
