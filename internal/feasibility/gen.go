package feasibility

import (
	"fmt"
	"math"
	"math/rand"

	"hades/internal/heug"
	"hades/internal/vtime"
)

// The period range, the resource pool and the critical-section bound
// of a generated task set are constants of the paper's application
// domain.
const (
	// genPeriodMin and genPeriodMax bound log-uniform periods.
	genPeriodMin = 5 * vtime.Millisecond
	genPeriodMax = 100 * vtime.Millisecond
	// genCSFraction bounds the critical section to this fraction of C.
	genCSFraction = 0.3
)

// genResources is the pool of resource names a critical section draws
// from.
var genResources = [...]string{"S1", "S2"}

// GenConfig controls random task-set generation for the schedulability
// sweeps (experiments E-S5, E-X1, E-X6).
type GenConfig struct {
	// N is the number of tasks.
	N int
	// U is the target total utilisation (split by UUniFast).
	U float64
	// DeadlineFactor places D in [C + f·(T−C), T]: 1 gives implicit
	// deadlines, smaller values constrained ones.
	DeadlineFactor float64
	// ResourceProb is the probability a task has a critical section.
	ResourceProb float64
}

// DefaultGenConfig returns a configuration representative of the
// paper's application domain: periods 5–100 ms, constrained deadlines,
// a third of the tasks sharing one of two resources.
func DefaultGenConfig(n int, u float64) GenConfig {
	return GenConfig{N: n, U: u, DeadlineFactor: 0.8, ResourceProb: 0.33}
}

// uuniFast splits total utilisation u over n tasks without bias
// (Bini & Buttazzo's standard generator).
func uuniFast(rng *rand.Rand, n int, u float64) []float64 {
	out := make([]float64, n)
	sum := u
	for i := 1; i < n; i++ {
		next := sum * math.Pow(rng.Float64(), 1/float64(n-i))
		out[i-1] = sum - next
		sum = next
	}
	out[n-1] = sum
	return out
}

// Generate draws one random task set. The generator is deterministic
// given rng's state.
func Generate(rng *rand.Rand, cfg GenConfig) []Task {
	us := uuniFast(rng, cfg.N, cfg.U)
	tasks := make([]Task, cfg.N)
	logMin, logMax := math.Log(float64(genPeriodMin)), math.Log(float64(genPeriodMax))
	for i := range tasks {
		period := vtime.Duration(math.Exp(logMin + rng.Float64()*(logMax-logMin)))
		c := vtime.Duration(us[i] * float64(period))
		if c < vtime.Microsecond {
			c = vtime.Microsecond
		}
		dmin := float64(c) + cfg.DeadlineFactor*float64(period-c)
		d := vtime.Duration(dmin + rng.Float64()*(float64(period)-dmin))
		if d < c {
			d = c
		}
		t := Task{
			Name:  fmt.Sprintf("tau%d", i+1),
			C:     c,
			D:     d,
			T:     period,
			NumEU: 1,
		}
		if rng.Float64() < cfg.ResourceProb {
			t.Resource = genResources[rng.Intn(len(genResources))]
			cs := vtime.Duration(genCSFraction * rng.Float64() * float64(c))
			if cs < vtime.Microsecond {
				cs = vtime.Microsecond
			}
			if cs > c {
				cs = c
			}
			t.CS = cs
			t.NumEU = 3
			t.LocalEdges = 2
			// Keep the three-way split realisable: cs plus non-empty
			// before/after segments (shrink cs if needed).
			if c < 3*vtime.Microsecond {
				t.NumEU = 1
				t.LocalEdges = 0
				t.CS = 0
				t.Resource = ""
			} else if cs > c-2*vtime.Microsecond {
				t.CS = c - 2*vtime.Microsecond
			}
		}
		tasks[i] = t
	}
	return tasks
}

// ToSpuri converts an analysis task back into the §5.1 concrete model,
// splitting C around the critical section, with the SRP blocking bound
// computed against the rest of the set. The result feeds the Figure 3
// translation (heug.SpuriTask.ToHEUG) for simulation.
//
// The split preserves the analysis task's structural counts: a task
// without a critical section stays a single unit (all of C in
// c_before); one with a critical section splits into the Figure 3
// three-unit chain. The elementary-unit count is what the §5.3 cost
// inflation charges per-unit overheads for, so analysis and simulation
// must agree on it: FromHEUG of the translated task gives t back.
func ToSpuri(t Task, all []Task, node int) heug.SpuriTask {
	var before, after vtime.Duration
	if t.CS > 0 {
		before = (t.C - t.CS) / 2
		after = t.C - t.CS - before
	} else {
		before = t.C
	}
	return heug.SpuriTask{
		Name:         t.Name,
		Node:         node,
		CBefore:      before,
		CS:           t.CS,
		CAfter:       after,
		Resource:     t.Resource,
		Deadline:     t.D,
		PseudoPeriod: t.T,
		Blocking:     srpBlocking(all, t.D, nil),
	}
}
