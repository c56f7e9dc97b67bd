// Package schedule defines schedules for communication-enhanced instances
// and their carbon cost.
//
// A schedule assigns a start time to every node of Gc (original tasks and
// communication tasks alike). Its carbon cost is computed with the
// polynomial interval sweep of Appendix A.1, the walk of a Draw; a
// brute-force per-time-unit
// evaluator serves as the ground-truth oracle in tests. The Timeline type
// supports the incremental cost-delta queries the local search needs.
package schedule

import (
	"fmt"

	"repro/internal/ceg"
)

// Schedule assigns a start time σ(v) to every node of the instance.
// Node v occupies [Start[v], Start[v]+Dur[v]).
type Schedule struct {
	Start []int64
}

// New returns a schedule with all start times zero for an instance with n
// nodes.
func New(n int) *Schedule {
	return &Schedule{Start: make([]int64, n)}
}

// Clone returns a deep copy.
func (s *Schedule) Clone() *Schedule {
	return &Schedule{Start: append([]int64(nil), s.Start...)}
}

// Makespan returns the maximum completion time.
func Makespan(inst *ceg.Instance, s *Schedule) int64 {
	var m int64
	for v := 0; v < inst.N(); v++ {
		if f := s.Start[v] + inst.Dur[v]; f > m {
			m = f
		}
	}
	return m
}

// Validate checks that s is a feasible schedule for inst with deadline T:
// every node runs within [0, T), all precedence (and therefore ordering)
// constraints of Gc hold, and no two nodes overlap on any processor.
func Validate(inst *ceg.Instance, s *Schedule, T int64) error {
	N := inst.N()
	if len(s.Start) != N {
		return fmt.Errorf("schedule: %d start times for %d nodes", len(s.Start), N)
	}
	for v := 0; v < N; v++ {
		if s.Start[v] < 0 {
			return fmt.Errorf("schedule: node %d starts at %d < 0", v, s.Start[v])
		}
		if s.Start[v]+inst.Dur[v] > T {
			return fmt.Errorf("schedule: node %d finishes at %d > deadline %d",
				v, s.Start[v]+inst.Dur[v], T)
		}
	}
	for _, e := range inst.G.Edges {
		if s.Start[e.To] < s.Start[e.From]+inst.Dur[e.From] {
			return fmt.Errorf("schedule: edge %d→%d violated: start %d < finish %d",
				e.From, e.To, s.Start[e.To], s.Start[e.From]+inst.Dur[e.From])
		}
	}
	// Non-overlap per processor. With ordering edges in Gc this is implied,
	// but we verify directly to catch instance-construction bugs too.
	for p, tasks := range inst.Order {
		for i := 1; i < len(tasks); i++ {
			prev, cur := tasks[i-1], tasks[i]
			if s.Start[prev]+inst.Dur[prev] > s.Start[cur] {
				return fmt.Errorf("schedule: processor %d: node %d overlaps %d", p, prev, cur)
			}
		}
	}
	return nil
}
