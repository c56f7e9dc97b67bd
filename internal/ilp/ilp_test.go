package ilp

import (
	"context"

	"testing"

	"repro/internal/ceg"
	"repro/internal/dag"
	"repro/internal/exact"
	"repro/internal/milp"
	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/rng"
	"repro/internal/schedule"
)

// uniChain builds a single-processor chain instance (speed 1).
func uniChain(tb testing.TB, weights []int64, idle, work int64) *ceg.Instance {
	tb.Helper()
	n := len(weights)
	d := dag.New(n)
	order := make([]int, n)
	finish := make([]int64, n)
	var cum int64
	for i := range weights {
		d.SetWeight(i, weights[i])
		if i > 0 {
			d.AddEdge(i-1, i, 1)
		}
		order[i] = i
		cum += weights[i]
		finish[i] = cum
	}
	cluster := platform.New([]platform.ProcType{{Name: "U", Speed: 1, Idle: idle, Work: work}}, []int{1}, 1)
	inst, err := ceg.Build(d, &ceg.Mapping{Proc: make([]int, n), Order: [][]int{order}, Finish: finish}, cluster)
	if err != nil {
		tb.Fatal(err)
	}
	return inst
}

// twoProcCross builds a 2-task chain across two processors (one comm task).
func twoProcCross(tb testing.TB) *ceg.Instance {
	tb.Helper()
	d := dag.New(2)
	d.SetWeight(0, 2)
	d.SetWeight(1, 2)
	d.AddEdge(0, 1, 1)
	cluster := platform.New([]platform.ProcType{
		{Name: "A", Speed: 1, Idle: 0, Work: 2},
		{Name: "B", Speed: 1, Idle: 0, Work: 3},
	}, []int{1, 1}, 1)
	inst, err := ceg.Build(d, &ceg.Mapping{
		Proc: []int{0, 1}, Order: [][]int{{0}, {1}}, Finish: []int64{2, 5},
	}, cluster)
	if err != nil {
		tb.Fatal(err)
	}
	return inst
}

func TestBuildModelShape(t *testing.T) {
	inst := uniChain(t, []int64{2, 2}, 1, 1)
	prof := power.Constant(8, 5)
	model, vm, err := BuildModel(inst, prof)
	if err != nil {
		t.Fatal(err)
	}
	wantVars := 3*2*8 + 4*8
	if vm.Total != wantVars || model.NumVars != wantVars {
		t.Errorf("total vars = %d, want %d", vm.Total, wantVars)
	}
	// s, e, r, α integer; gu, bu, γ continuous.
	if !model.Integer[vm.S(0, 0)] || !model.Integer[vm.R(1, 3)] || !model.Integer[vm.Alpha(2)] {
		t.Error("binary variables not marked integer")
	}
	if model.Integer[vm.Gu(0)] || model.Integer[vm.Bu(1)] || model.Integer[vm.Gamma(2)] {
		t.Error("power variables should be continuous")
	}
	// Objective touches exactly the bu block.
	for t2 := int64(0); t2 < 8; t2++ {
		if model.Obj[vm.Bu(t2)] != 1 {
			t.Error("objective must be Σ bu_t")
		}
	}
}

func TestSolveSingleTaskGreenWindow(t *testing.T) {
	// Green power only in the second half: the ILP must shift the task.
	inst := uniChain(t, []int64{2}, 0, 4)
	prof, err := power.NewProfile([]int64{4, 4}, []int64{0, 5})
	if err != nil {
		t.Fatal(err)
	}
	s, cost, err := Solve(inst, prof, milp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cost != 0 {
		t.Errorf("cost = %d, want 0", cost)
	}
	if s.Start[0] < 4 || s.Start[0] > 6 {
		t.Errorf("start = %d, want within [4, 6]", s.Start[0])
	}
}

func TestSolveChainRespectsPrecedence(t *testing.T) {
	inst := uniChain(t, []int64{2, 2}, 1, 2)
	prof, err := power.NewProfile([]int64{5, 5}, []int64{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	s, cost, err := Solve(inst, prof, milp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := schedule.Validate(inst, s, prof.T()); err != nil {
		t.Fatal(err)
	}
	// Cross-check with the branch-and-bound optimum.
	_, want, err := exact.Solve(context.Background(), inst, power.SingleZone(prof), exact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cost != want {
		t.Errorf("ILP cost %d != exact optimum %d", cost, want)
	}
}

func TestSolveMatchesExactOnCommInstance(t *testing.T) {
	inst := twoProcCross(t)
	prof, err := power.NewProfile([]int64{5, 5}, []int64{4, 0})
	if err != nil {
		t.Fatal(err)
	}
	s, cost, err := Solve(inst, prof, milp.Options{MaxNodes: 500000})
	if err != nil {
		t.Fatal(err)
	}
	if err := schedule.Validate(inst, s, prof.T()); err != nil {
		t.Fatal(err)
	}
	_, want, err := exact.Solve(context.Background(), inst, power.SingleZone(prof), exact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cost != want {
		t.Errorf("ILP cost %d != exact optimum %d", cost, want)
	}
}

func TestSolveMatchesExactRandomTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("MILP solves in -short mode")
	}
	for seed := uint64(0); seed < 3; seed++ {
		r := rng.New(seed)
		weights := []int64{r.IntRange(1, 2), r.IntRange(1, 2)}
		inst := uniChain(t, weights, r.IntRange(0, 1), r.IntRange(1, 3))
		T := weights[0] + weights[1] + r.IntRange(1, 4)
		prof, err := power.Generate(power.Scenarios()[r.Intn(4)], T, 2, 0, 4, r)
		if err != nil {
			t.Fatal(err)
		}
		_, ilpCost, err := Solve(inst, prof, milp.Options{MaxNodes: 500000})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		_, want, err := exact.Solve(context.Background(), inst, power.SingleZone(prof), exact.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if ilpCost != want {
			t.Errorf("seed %d: ILP %d != exact %d", seed, ilpCost, want)
		}
	}
}

func TestSolveInfeasibleHorizon(t *testing.T) {
	inst := uniChain(t, []int64{5}, 1, 1)
	prof := power.Constant(3, 10)
	if _, _, err := Solve(inst, prof, milp.Options{}); err == nil {
		t.Error("task longer than horizon not rejected")
	}
}
