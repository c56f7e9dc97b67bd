package core

import (
	"context"

	"testing"

	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/wfgen"
)

func TestGreedyDynamicValidSchedules(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		inst, prof := testInstance(t, wfgen.Families()[seed%4], 80, seed, power.Scenarios()[seed%4], 2)
		for _, sc := range Scores() {
			var st Stats
			s, err := GreedyDynamic(context.Background(), inst, power.SingleZone(prof), Options{Score: sc}, &st)
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, sc, err)
			}
			if err := schedule.Validate(inst, s, prof.T()); err != nil {
				t.Errorf("seed %d %v: %v", seed, sc, err)
			}
			if st.GreedyCost != schedule.CarbonCost(inst, s, power.SingleZone(prof)) {
				t.Errorf("seed %d %v: stats mismatch", seed, sc)
			}
		}
	}
}

func TestGreedyDynamicSchedulesEveryTaskOnce(t *testing.T) {
	inst, prof := testInstance(t, wfgen.Eager, 60, 7, power.S1, 2)
	s, err := GreedyDynamic(context.Background(), inst, power.SingleZone(prof), Options{Score: ScoreSlack}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Validity implies each task has a start; additionally the makespan
	// must be positive and within the horizon.
	mk := schedule.Makespan(inst, s)
	if mk <= 0 || mk > prof.T() {
		t.Errorf("makespan %d outside (0, %d]", mk, prof.T())
	}
}

func TestGreedyDynamicDeterministic(t *testing.T) {
	inst, prof := testInstance(t, wfgen.Methylseq, 70, 9, power.S3, 1.5)
	a, err := GreedyDynamic(context.Background(), inst, power.SingleZone(prof), Options{Score: ScorePressureW, Refined: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GreedyDynamic(context.Background(), inst, power.SingleZone(prof), Options{Score: ScorePressureW, Refined: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Start {
		if a.Start[v] != b.Start[v] {
			t.Fatal("dynamic greedy not deterministic")
		}
	}
}

func TestGreedyDynamicGreenWindow(t *testing.T) {
	inst := uniChain(t, []int64{3, 3}, 0, 10)
	prof, err := power.NewProfile([]int64{10, 10}, []int64{0, 10})
	if err != nil {
		t.Fatal(err)
	}
	s, err := GreedyDynamic(context.Background(), inst, power.SingleZone(prof), Options{Score: ScorePressure}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := schedule.CarbonCost(inst, s, power.SingleZone(prof)); got != 0 {
		t.Errorf("dynamic greedy cost = %d, want 0", got)
	}
}

func TestGreedyDynamicInfeasible(t *testing.T) {
	inst := uniChain(t, []int64{5, 5}, 1, 1)
	if _, err := GreedyDynamic(context.Background(), inst, power.SingleZone(power.Constant(9, 5)), Options{}, nil); err == nil {
		t.Error("infeasible deadline accepted")
	}
}
