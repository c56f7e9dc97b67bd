// Package ilp builds the paper's exact time-indexed integer linear program
// (Section 4.3, detailed in Appendix A.4, Eqs. (3)–(23)) and solves it with
// the in-repo MILP solver.
//
// The formulation is kept deliberately faithful to the paper — time-unit
// variables, Big-M linking of brown power, explicit start/end/running
// indicators — rather than strengthened, because its role is to certify the
// other solvers ("we keep a simple but correct ILP", Section 6.2). It is
// only tractable for very small instances; the branch-and-bound in
// internal/exact is the workhorse optimum for Figure 7.
package ilp

import (
	"fmt"
	"math"

	"repro/internal/ceg"
	"repro/internal/lp"
	"repro/internal/milp"
	"repro/internal/power"
	"repro/internal/schedule"
)

// VarMap describes the variable layout of the model.
type VarMap struct {
	N int   // number of nodes (incl. communication tasks)
	T int64 // horizon

	// Offsets of the variable blocks.
	sOff, eOff, rOff int
	guOff, buOff     int
	gammaOff, alpha  int
	Total            int
}

// S returns the index of s(v,t): task v starts at time t.
func (m *VarMap) S(v int, t int64) int { return m.sOff + v*int(m.T) + int(t) }

// E returns the index of e(v,t): task v ends at time t (inclusive indexing
// as in the paper: the last busy time unit).
func (m *VarMap) E(v int, t int64) int { return m.eOff + v*int(m.T) + int(t) }

// R returns the index of r(v,t): task v is running at time t.
func (m *VarMap) R(v int, t int64) int { return m.rOff + v*int(m.T) + int(t) }

// Gu returns the index of gu_t (green power used at t).
func (m *VarMap) Gu(t int64) int { return m.guOff + int(t) }

// Bu returns the index of bu_t (brown power used at t).
func (m *VarMap) Bu(t int64) int { return m.buOff + int(t) }

// Gamma returns the index of γ_t (total power at t).
func (m *VarMap) Gamma(t int64) int { return m.gammaOff + int(t) }

// Alpha returns the index of α_t (brown power needed at t).
func (m *VarMap) Alpha(t int64) int { return m.alpha + int(t) }

// BuildModel constructs the MILP for the instance under the profile.
func BuildModel(inst *ceg.Instance, prof *power.Profile) (*milp.Problem, *VarMap, error) {
	N := inst.N()
	T := prof.T()
	if T <= 0 {
		return nil, nil, fmt.Errorf("ilp: empty horizon")
	}
	for v := 0; v < N; v++ {
		if inst.Dur[v] > T {
			return nil, nil, fmt.Errorf("ilp: node %d longer than horizon", v)
		}
	}
	Ti := int(T)
	vm := &VarMap{N: N, T: T}
	vm.sOff = 0
	vm.eOff = N * Ti
	vm.rOff = 2 * N * Ti
	vm.guOff = 3 * N * Ti
	vm.buOff = vm.guOff + Ti
	vm.gammaOff = vm.buOff + Ti
	vm.alpha = vm.gammaOff + Ti
	vm.Total = vm.alpha + Ti

	p := &milp.Problem{
		Problem: lp.Problem{NumVars: vm.Total, Obj: make([]float64, vm.Total)},
		Integer: make([]bool, vm.Total),
	}
	// Objective (3)/(2): minimize Σ_t bu_t.
	for t := int64(0); t < T; t++ {
		p.Obj[vm.Bu(t)] = 1
	}
	// Integrality: s, e, r, α are binary (bounded below; ≤1 added where
	// not implied).
	for i := 0; i < 3*N*Ti; i++ {
		p.Integer[i] = true
	}
	for t := int64(0); t < T; t++ {
		p.Integer[vm.Alpha(t)] = true
	}

	// The paper estimates M ≥ Σ(P_idle + P_work), which suffices under its
	// profile generation (budgets never exceed the platform's max power).
	// For arbitrary profiles, constraint (20) additionally needs
	// M ≥ G_t − γ_t + ε, so cover the largest budget as well.
	bigM := float64(inst.Cluster.MaxPower() + 1)
	if b := float64(prof.MaxBudget() + 1); b > bigM {
		bigM = b
	}
	const epsilon = 0.5 // any value in (0, 1) works on integral data

	for v := 0; v < N; v++ {
		w := inst.Dur[v]
		// (5): Σ_{t ≤ T−ω} s(v,t) = 1.
		var vars []int
		var coefs []float64
		for t := int64(0); t <= T-w; t++ {
			vars = append(vars, vm.S(v, t))
			coefs = append(coefs, 1)
		}
		p.AddConstraint(vars, coefs, lp.EQ, 1)
		// (6): late starts forbidden.
		for t := T - w + 1; t < T; t++ {
			p.AddConstraint([]int{vm.S(v, t)}, []float64{1}, lp.EQ, 0)
		}
		// (7): early ends forbidden.
		for t := int64(0); t <= w-2; t++ {
			p.AddConstraint([]int{vm.E(v, t)}, []float64{1}, lp.EQ, 0)
		}
		// (8): Σ_{t ≥ ω−1} e(v,t) = 1.
		vars, coefs = nil, nil
		for t := w - 1; t < T; t++ {
			vars = append(vars, vm.E(v, t))
			coefs = append(coefs, 1)
		}
		p.AddConstraint(vars, coefs, lp.EQ, 1)
		// (9): s(v,t) = e(v,t+ω−1).
		for t := int64(0); t <= T-w; t++ {
			p.AddConstraint([]int{vm.S(v, t), vm.E(v, t+w-1)}, []float64{1, -1}, lp.EQ, 0)
		}
		// (10): Σ_t r(v,t) = ω.
		vars, coefs = nil, nil
		for t := int64(0); t < T; t++ {
			vars = append(vars, vm.R(v, t))
			coefs = append(coefs, 1)
			// r ≤ 1 (not implied by (10) alone).
			p.AddConstraint([]int{vm.R(v, t)}, []float64{1}, lp.LE, 1)
		}
		p.AddConstraint(vars, coefs, lp.EQ, float64(w))
		// (11): r(v,k) ≥ s(v,t) for t ≤ k ≤ t+ω−1.
		for t := int64(0); t <= T-w; t++ {
			for k := t; k <= t+w-1; k++ {
				p.AddConstraint([]int{vm.R(v, k), vm.S(v, t)}, []float64{1, -1}, lp.GE, 0)
			}
		}
	}

	// (12): precedence — s(v,t) ≤ Σ_{l<t} e(u,l) for every edge (u,v).
	for _, e := range inst.G.Edges {
		for t := int64(0); t < T; t++ {
			vars := []int{vm.S(e.To, t)}
			coefs := []float64{1}
			for l := int64(0); l < t; l++ {
				vars = append(vars, vm.E(e.From, l))
				coefs = append(coefs, -1)
			}
			p.AddConstraint(vars, coefs, lp.LE, 0)
		}
	}

	idle := float64(inst.TotalIdlePower())
	for t := int64(0); t < T; t++ {
		G := float64(prof.BudgetAt(t))
		bu, gu, gamma, alpha := vm.Bu(t), vm.Gu(t), vm.Gamma(t), vm.Alpha(t)
		// (16): bu ≥ γ − G.
		p.AddConstraint([]int{bu, gamma}, []float64{1, -1}, lp.GE, -G)
		// (17): bu ≤ γ − G + M(1−α)  ⇔  bu − γ + Mα ≤ M − G.
		p.AddConstraint([]int{bu, gamma, alpha}, []float64{1, -1, bigM}, lp.LE, bigM-G)
		// (18): bu ≤ Mα.
		p.AddConstraint([]int{bu, alpha}, []float64{1, -bigM}, lp.LE, 0)
		// (19): γ − G ≤ Mα.
		p.AddConstraint([]int{gamma, alpha}, []float64{1, -bigM}, lp.LE, G)
		// (20): γ − G ≥ ε − M(1−α)  ⇔  γ + Mα ≤ ... rearranged:
		// γ − Mα ≥ G + ε − M.
		p.AddConstraint([]int{gamma, alpha}, []float64{1, -bigM}, lp.GE, G+epsilon-bigM)
		// α ≤ 1.
		p.AddConstraint([]int{alpha}, []float64{1}, lp.LE, 1)
		// (22): gu + bu = γ.
		p.AddConstraint([]int{gu, bu, gamma}, []float64{1, 1, -1}, lp.EQ, 0)
		// (23): γ = Σ idle + Σ_v r(v,t)·P_work.
		vars := []int{gamma}
		coefs := []float64{1}
		for v := 0; v < N; v++ {
			_, work := inst.ProcPower(v)
			vars = append(vars, vm.R(v, t))
			coefs = append(coefs, -float64(work))
		}
		p.AddConstraint(vars, coefs, lp.EQ, idle)
	}
	return p, vm, nil
}

// Solve builds and solves the ILP and extracts the optimal schedule.
func Solve(inst *ceg.Instance, prof *power.Profile, opt milp.Options) (*schedule.Schedule, int64, error) {
	model, vm, err := BuildModel(inst, prof)
	if err != nil {
		return nil, 0, err
	}
	sol, err := milp.Solve(model, opt)
	if err != nil {
		return nil, 0, err
	}
	if sol.Status != lp.Optimal {
		return nil, 0, fmt.Errorf("ilp: model %v", sol.Status)
	}
	s := schedule.New(inst.N())
	for v := 0; v < inst.N(); v++ {
		found := false
		for t := int64(0); t < prof.T(); t++ {
			if sol.X[vm.S(v, t)] > 0.5 {
				s.Start[v] = t
				found = true
				break
			}
		}
		if !found {
			return nil, 0, fmt.Errorf("ilp: no start time selected for node %d", v)
		}
	}
	if err := schedule.Validate(inst, s, prof.T()); err != nil {
		return nil, 0, fmt.Errorf("ilp: extracted schedule invalid: %w", err)
	}
	cost := int64(math.Round(sol.Obj))
	if check := schedule.CarbonCost(inst, s, power.SingleZone(prof)); check != cost {
		return nil, 0, fmt.Errorf("ilp: objective %d disagrees with evaluated cost %d", cost, check)
	}
	return s, cost, nil
}
