package core

import (
	"context"

	"testing"

	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/wfgen"
)

func TestGreedyMarginalValidSchedules(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		inst, prof := testInstance(t, wfgen.Families()[seed%4], 80, seed, power.Scenarios()[seed%4], 2)
		for _, refined := range []bool{false, true} {
			var st Stats
			s, err := GreedyMarginal(context.Background(), inst, power.SingleZone(prof), Options{Score: ScorePressureW, Refined: refined}, &st)
			if err != nil {
				t.Fatalf("seed %d refined=%v: %v", seed, refined, err)
			}
			if err := schedule.Validate(inst, s, prof.T()); err != nil {
				t.Errorf("seed %d refined=%v: %v", seed, refined, err)
			}
			if st.GreedyCost != schedule.CarbonCost(inst, s, power.SingleZone(prof)) {
				t.Errorf("seed %d: stats cost mismatch", seed)
			}
		}
	}
}

func TestGreedyMarginalFindsGreenWindow(t *testing.T) {
	// Green power only late: the marginal greedy must place both tasks
	// in the green window, like the budget greedy does.
	inst := uniChain(t, []int64{3, 3}, 0, 10)
	prof, err := power.NewProfile([]int64{10, 10}, []int64{0, 10})
	if err != nil {
		t.Fatal(err)
	}
	s, err := GreedyMarginal(context.Background(), inst, power.SingleZone(prof), Options{Score: ScoreSlack}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := schedule.CarbonCost(inst, s, power.SingleZone(prof)); got != 0 {
		t.Errorf("marginal greedy cost = %d, want 0", got)
	}
}

func TestGreedyMarginalExactWindowBeatsBudgetApproximation(t *testing.T) {
	// A case where budgets mislead: two intervals, the first has a higher
	// *initial* budget but is short, so a long task overflows it into a
	// brown region... construct: interval A [0,2) budget 9, interval B
	// [2,12) budget 6. Task of length 6 starting at 0 covers [0,6):
	// 2 units at budget 9 and 4 at budget 6. Starting at 2 covers [2,8):
	// all at budget 6. With work power 8 and idle 0:
	//   at 0: cost = 2·max(8-9,0) + 4·max(8-6,0) = 8
	//   at 2: cost = 6·max(8-6,0) = 12
	// Here 0 is better; flip powers so the opposite holds: work 7:
	//   at 0: 0 + 4·1 = 4 ; at 2: 6·1 = 6 → 0 still better. Use budget
	// structure where the budget greedy picks the high-budget start but
	// the exact cost favours the other: A [0,4) budget 10, B [4,20)
	// budget 8, task length 12, work 9, idle 0.
	//   start 0: 4·0 + 8·1 = 8 ; start 4: 12·1 = 12 → budget pick (0) is
	// also the exact pick. The honest discriminating case needs a *short*
	// high-budget island: A [0,1) budget 20, B [1,30) budget 5; task
	// length 10, work 6:
	//   start 0: 0 + 9·1 = 9 ; start 1: 10·1 = 10. Budget greedy picks 0
	// (highest budget) — same as exact. The approximation aligns on
	// single-task cases; the gap appears through *budget exhaustion*
	// across multiple tasks, covered by the ablation. Here we only pin
	// down that the marginal greedy picks the cost-minimizing start.
	inst := uniChain(t, []int64{10}, 0, 6)
	prof, err := power.NewProfile([]int64{1, 29}, []int64{20, 5})
	if err != nil {
		t.Fatal(err)
	}
	s, err := GreedyMarginal(context.Background(), inst, power.SingleZone(prof), Options{Score: ScoreSlack}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Start[0] != 0 {
		t.Errorf("marginal start = %d, want 0 (cost 9 < 10)", s.Start[0])
	}
}

func TestGreedyMarginalDeterministic(t *testing.T) {
	inst, prof := testInstance(t, wfgen.Atacseq, 60, 3, power.S1, 2)
	a, err := GreedyMarginal(context.Background(), inst, power.SingleZone(prof), Options{Score: ScoreSlackW, Refined: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GreedyMarginal(context.Background(), inst, power.SingleZone(prof), Options{Score: ScoreSlackW, Refined: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Start {
		if a.Start[v] != b.Start[v] {
			t.Fatal("marginal greedy not deterministic")
		}
	}
}

func TestGreedyMarginalInfeasible(t *testing.T) {
	inst := uniChain(t, []int64{5, 5}, 1, 1)
	prof := power.Constant(9, 100)
	if _, err := GreedyMarginal(context.Background(), inst, power.SingleZone(prof), Options{}, nil); err == nil {
		t.Error("infeasible deadline accepted")
	}
}
