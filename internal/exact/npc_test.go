// The strong NP-completeness reduction of Theorem 4.3 / Appendix A.3 as
// executable code: an instance of 3-Partition is transformed into a UCAS
// instance (uniform carbon-aware scheduling: P processors with P_idle = 0,
// P_work = 1, independent tasks) that admits a zero-carbon schedule if and
// only if the 3-Partition instance is a yes-instance.
//
// It exists to make the hardness proof testable: small 3-Partition
// instances are solved both directly (exhaustive partition search) and
// through the reduction plus Solve, and the answers must agree
// (npc_reduction_test.go).

package exact

import (
	"fmt"

	"repro/internal/ceg"
	"repro/internal/dag"
	"repro/internal/platform"
	"repro/internal/power"
)

// ThreePartition is an instance of the 3-Partition problem: 3n positive
// integers X that should be partitioned into n triplets each summing to B.
type ThreePartition struct {
	X []int64
	B int64
}

// N returns n (the number of triplets sought).
func (p *ThreePartition) N() int { return len(p.X) / 3 }

// Validate checks the standard 3-Partition promises: |X| = 3n,
// Σ X = n·B, and B/4 < x < B/2 for every element (which forces every
// zero-sum-defect subset to be a triplet).
func (p *ThreePartition) Validate() error {
	if len(p.X)%3 != 0 || len(p.X) == 0 {
		return fmt.Errorf("3-partition: |X| = %d is not a positive multiple of 3", len(p.X))
	}
	n := int64(p.N())
	var sum int64
	for i, x := range p.X {
		if 4*x <= p.B || 2*x >= p.B {
			return fmt.Errorf("3-partition: element %d = %d violates B/4 < x < B/2 (B = %d)", i, x, p.B)
		}
		sum += x
	}
	if sum != n*p.B {
		return fmt.Errorf("3-partition: ΣX = %d, want n·B = %d", sum, n*p.B)
	}
	return nil
}

// SolveDirect decides the 3-Partition instance by exhaustive search over
// triplet partitions (exponential; for tests on tiny instances). It
// returns one witness partition (indices into X) if satisfiable.
func (p *ThreePartition) SolveDirect() ([][3]int, bool) {
	if err := p.Validate(); err != nil {
		return nil, false
	}
	m := len(p.X)
	used := make([]bool, m)
	var out [][3]int
	var rec func() bool
	rec = func() bool {
		// Find first unused element.
		first := -1
		for i := 0; i < m; i++ {
			if !used[i] {
				first = i
				break
			}
		}
		if first == -1 {
			return true
		}
		used[first] = true
		for j := first + 1; j < m; j++ {
			if used[j] {
				continue
			}
			used[j] = true
			for k := j + 1; k < m; k++ {
				if used[k] || p.X[first]+p.X[j]+p.X[k] != p.B {
					continue
				}
				used[k] = true
				out = append(out, [3]int{first, j, k})
				if rec() {
					return true
				}
				out = out[:len(out)-1]
				used[k] = false
			}
			used[j] = false
		}
		used[first] = false
		return false
	}
	if rec() {
		return out, true
	}
	return nil, false
}

// Reduction is the UCAS instance produced from a 3-Partition instance.
type Reduction struct {
	Instance *ceg.Instance
	Profile  *power.Profile
	// Bound is the carbon-cost bound C of the decision problem (always 0).
	Bound int64
}

// Build constructs the UCAS instance of Appendix A.3:
//
//   - 3n uniform processors (P_idle = 0, P_work = 1), task v_i on p_i;
//   - 3n independent tasks with ω(v_i) = x_i;
//   - horizon of J = 2n−1 intervals: odd intervals of length B with green
//     budget 1, even intervals of length 1 with budget 0; T = nB + n − 1;
//   - cost bound C = 0.
func Build(p *ThreePartition) (*Reduction, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := p.N()
	m := len(p.X)

	d := dag.New(m)
	for i, x := range p.X {
		d.SetWeight(i, x)
	}
	cluster := platform.New([]platform.ProcType{
		{Name: "uniform", Speed: 1, Idle: 0, Work: 1},
	}, []int{m}, 0)

	proc := make([]int, m)
	order := make([][]int, m)
	finish := make([]int64, m)
	for i := 0; i < m; i++ {
		proc[i] = i
		order[i] = []int{i}
		finish[i] = p.X[i]
	}
	inst, err := ceg.Build(d, &ceg.Mapping{Proc: proc, Order: order, Finish: finish}, cluster)
	if err != nil {
		return nil, err
	}

	J := 2*n - 1
	lengths := make([]int64, J)
	budgets := make([]int64, J)
	for j := 0; j < J; j++ {
		if j%2 == 0 {
			lengths[j] = p.B
			budgets[j] = 1
		} else {
			lengths[j] = 1
			budgets[j] = 0
		}
	}
	prof, err := power.NewProfile(lengths, budgets)
	if err != nil {
		return nil, err
	}
	return &Reduction{Instance: inst, Profile: prof, Bound: 0}, nil
}

// ScheduleFromPartition turns a witness partition into the zero-cost
// schedule of the forward direction of the proof: triplet k executes
// back-to-back inside odd interval I_{2k−1}.
func (r *Reduction) ScheduleFromPartition(p *ThreePartition, triplets [][3]int) ([]int64, error) {
	if len(triplets) != p.N() {
		return nil, fmt.Errorf("3-partition: %d triplets for n = %d", len(triplets), p.N())
	}
	start := make([]int64, len(p.X))
	seen := make([]bool, len(p.X))
	for k, tr := range triplets {
		t := int64(k) * (p.B + 1) // beginning of odd interval k
		var sum int64
		for _, idx := range tr {
			if idx < 0 || idx >= len(p.X) || seen[idx] {
				return nil, fmt.Errorf("3-partition: bad triplet element %d", idx)
			}
			seen[idx] = true
			start[idx] = t
			t += p.X[idx]
			sum += p.X[idx]
		}
		if sum != p.B {
			return nil, fmt.Errorf("3-partition: triplet %d sums to %d, want %d", k, sum, p.B)
		}
	}
	return start, nil
}
