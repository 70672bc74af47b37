package scenario

import (
	"fmt"

	"hades/internal/cluster"
	"hades/internal/vtime"
)

// FaultSpec schedules one deterministic fault injection:
//
//   - "drop-every": drop every K-th message on Port (omission);
//   - "drop-from": drop all messages Node sends on Port (a fully
//     send-omission-faulty process);
//   - "crash": node crash at AtMs, recovering at RecoverMs (0 = never);
//   - "partition": split the declared nodes into Partition sides at
//     AtMs (cross-side traffic drops, in-flight included), healing at
//     HealMs (0 = never). Nodes in no side keep full connectivity.
type FaultSpec struct {
	Kind      string  `json:"kind"`
	Node      int     `json:"node,omitempty"`
	K         int     `json:"k,omitempty"`
	Port      string  `json:"port,omitempty"`
	AtMs      float64 `json:"atMs,omitempty"`
	RecoverMs float64 `json:"recoverMs,omitempty"`
	HealMs    float64 `json:"healMs,omitempty"`
	Partition [][]int `json:"partition,omitempty"`
}

// faultKinds is the fault-kind enum's single source (see named): each
// kind's own rules next to its lowering.
var faultKinds = map[string]struct {
	validate func(s Spec, f FaultSpec) error
	attach   func(c *cluster.Cluster, f FaultSpec)
}{
	"drop-every": {
		func(s Spec, f FaultSpec) error {
			if f.K < 1 {
				return fmt.Errorf("scenario %q: drop-every fault needs k >= 1 (got %d)", s.Name, f.K)
			}
			return nil
		},
		func(c *cluster.Cluster, f FaultSpec) { c.DropEvery(f.K, f.Port) },
	},
	"drop-from": {
		func(s Spec, f FaultSpec) error { return s.knownNode(f.Node, "drop-from fault on") },
		func(c *cluster.Cluster, f FaultSpec) { c.DropFrom([]int{f.Node}, f.Port) },
	},
	"crash": {
		func(s Spec, f FaultSpec) error {
			if err := s.knownNode(f.Node, "crash fault on"); err != nil {
				return err
			}
			if f.RecoverMs != 0 && f.RecoverMs <= f.AtMs {
				return fmt.Errorf("scenario %q: crash of node %d recovers at %gms, not after the crash at %gms", s.Name, f.Node, f.RecoverMs, f.AtMs)
			}
			return nil
		},
		func(c *cluster.Cluster, f FaultSpec) {
			c.Crash(f.Node, vtime.Time(msd(f.AtMs)), vtime.Time(msd(f.RecoverMs)))
		},
	},
	"partition": {
		func(s Spec, f FaultSpec) error {
			if len(f.Partition) < 2 {
				return fmt.Errorf("scenario %q: partition fault needs at least 2 sides (got %d)", s.Name, len(f.Partition))
			}
			seen := map[int]bool{}
			for _, side := range f.Partition {
				if len(side) == 0 {
					return fmt.Errorf("scenario %q: partition fault has an empty side", s.Name)
				}
				for _, n := range side {
					if err := s.knownNode(n, "partition side names"); err != nil {
						return err
					}
					if seen[n] {
						return fmt.Errorf("scenario %q: partition lists node %d in two sides", s.Name, n)
					}
					seen[n] = true
				}
			}
			if f.HealMs != 0 && f.HealMs <= f.AtMs {
				return fmt.Errorf("scenario %q: partition heals at %gms, not after the split at %gms", s.Name, f.HealMs, f.AtMs)
			}
			return nil
		},
		func(c *cluster.Cluster, f FaultSpec) {
			c.PartitionAt(vtime.Time(msd(f.AtMs)), f.Partition...)
			if f.HealMs > 0 {
				c.HealAt(vtime.Time(msd(f.HealMs)))
			}
		},
	},
}

// validateFaults rejects fault schedules that could not inject: no
// network to inject into, a negative instant, an unknown kind, or
// whatever the kind itself refuses.
func (s Spec) validateFaults() error {
	if len(s.Faults) > 0 {
		if err := s.networked("faults need"); err != nil {
			return err
		}
	}
	for _, f := range s.Faults {
		if f.AtMs < 0 {
			return fmt.Errorf("scenario %q: %s fault at negative instant %gms", s.Name, f.Kind, f.AtMs)
		}
		kind, err := named(s, faultKinds, f.Kind, "unknown fault kind")
		if err != nil {
			return err
		}
		if err := kind.validate(s, f); err != nil {
			return err
		}
	}
	return nil
}

// attachFaults schedules the declared injections, declaration order.
func (s Spec) attachFaults(c *cluster.Cluster) error {
	for _, f := range s.Faults {
		kind, err := named(s, faultKinds, f.Kind, "unknown fault kind")
		if err != nil {
			return err
		}
		kind.attach(c, f)
	}
	return nil
}
