package heug_test

import (
	"fmt"

	"hades/internal/heug"
	"hades/internal/vtime"
)

// ExampleBuilder assembles a small distributed HEUG: a fork-join graph
// whose branches run on different processors, connected by remote
// precedence constraints carrying parameters.
func ExampleBuilder() {
	us := vtime.Microsecond
	task, err := heug.NewTask("pipeline", heug.SporadicEvery(10*vtime.Millisecond)).
		WithDeadline(8*vtime.Millisecond).
		Code("acquire", heug.CodeEU{Node: 0, WCET: 200 * us}).
		Code("filterA", heug.CodeEU{Node: 1, WCET: 400 * us}).
		Code("filterB", heug.CodeEU{Node: 2, WCET: 300 * us}).
		Code("merge", heug.CodeEU{Node: 0, WCET: 100 * us}).
		Precede("acquire", "filterA", "raw").
		Precede("acquire", "filterB", "raw").
		Precede("filterA", "merge", "a").
		Precede("filterB", "merge", "b").
		Build()
	if err != nil {
		panic(err)
	}
	fmt.Println("EUs:", len(task.EUs))
	fmt.Println("remote edges:", countRemote(task))
	// Output:
	// EUs: 4
	// remote edges: 4
}

func countRemote(t *heug.Task) int {
	n := 0
	for i := range t.Edges {
		if t.IsRemote(i) {
			n++
		}
	}
	return n
}

// ExampleSpuriTask_ToHEUG performs the paper's Figure 3 translation.
func ExampleSpuriTask_ToHEUG() {
	ms := vtime.Millisecond
	st := heug.SpuriTask{
		Name:         "tau",
		CBefore:      2 * ms,
		CS:           1 * ms,
		CAfter:       1 * ms,
		Resource:     "S",
		Deadline:     20 * ms,
		PseudoPeriod: 25 * ms,
		Blocking:     3 * ms,
	}
	task, err := st.ToHEUG()
	if err != nil {
		panic(err)
	}
	for _, eu := range task.EUs {
		res := "-"
		if len(eu.Code.Resources) > 0 {
			res = eu.Code.Resources[0].Resource
		}
		fmt.Printf("%s w=%s resource=%s\n", eu.Name, eu.Code.WCET, res)
	}
	// Output:
	// tau.eu1 w=2ms resource=-
	// tau.eu2 w=1ms resource=S
	// tau.eu3 w=1ms resource=-
}
