package core

import (
	"context"

	"testing"

	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/wfgen"
)

func TestALAPIsValidAndLatest(t *testing.T) {
	inst := uniChain(t, []int64{2, 3}, 1, 1)
	s, err := ALAP(inst, 12)
	if err != nil {
		t.Fatal(err)
	}
	if err := schedule.Validate(inst, s, 12); err != nil {
		t.Fatal(err)
	}
	// Latest starts: task 1 at 12−3 = 9, task 0 at 9−2 = 7.
	if s.Start[0] != 7 || s.Start[1] != 9 {
		t.Errorf("ALAP starts = %v, want [7 9]", s.Start)
	}
	if schedule.Makespan(inst, s) != 12 {
		t.Errorf("ALAP makespan = %d, want 12 (touches the deadline)", schedule.Makespan(inst, s))
	}
}

func TestALAPInfeasible(t *testing.T) {
	inst := uniChain(t, []int64{5, 5}, 1, 1)
	if _, err := ALAP(inst, 9); err == nil {
		t.Error("infeasible deadline accepted")
	}
}

func TestALAPBeatsASAPOnLateGreen(t *testing.T) {
	inst := uniChain(t, []int64{3, 3}, 0, 10)
	prof, err := power.NewProfile([]int64{10, 10}, []int64{0, 20})
	if err != nil {
		t.Fatal(err)
	}
	asapCost := schedule.CarbonCost(inst, ASAP(inst), power.SingleZone(prof))
	alap, err := ALAP(inst, prof.T())
	if err != nil {
		t.Fatal(err)
	}
	alapCost := schedule.CarbonCost(inst, alap, power.SingleZone(prof))
	if alapCost >= asapCost {
		t.Errorf("ALAP cost %d not below ASAP cost %d with late green power", alapCost, asapCost)
	}
	if alapCost != 0 {
		t.Errorf("ALAP cost = %d, want 0 (fits in the green window)", alapCost)
	}
}

func TestAnnealNeverWorsens(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		inst, prof := testInstance(t, wfgen.Families()[seed%4], 70, seed, power.S3, 2)
		s, err := Greedy(context.Background(), inst, power.SingleZone(prof), Options{Score: ScoreSlack}, nil)
		if err != nil {
			t.Fatal(err)
		}
		before := schedule.CarbonCost(inst, s, power.SingleZone(prof))
		got, err := Anneal(context.Background(), inst, power.SingleZone(prof), s, AnnealOptions{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		after := schedule.CarbonCost(inst, s, power.SingleZone(prof))
		if got != after {
			t.Errorf("seed %d: Anneal returned %d but schedule evaluates to %d", seed, got, after)
		}
		if after > before {
			t.Errorf("seed %d: annealing worsened %d → %d", seed, before, after)
		}
		if err := schedule.Validate(inst, s, prof.T()); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

func TestAnnealFindsGreenWindow(t *testing.T) {
	// Single task parked in the brown zone; annealing should find the
	// green window even though it is farther than the hill climber's ±µ.
	inst := uniChain(t, []int64{3}, 0, 10)
	prof, err := power.NewProfile([]int64{50, 10}, []int64{0, 20})
	if err != nil {
		t.Fatal(err)
	}
	s := schedule.New(1) // start 0: fully brown, 50 units from the window
	cost, err := Anneal(context.Background(), inst, power.SingleZone(prof), s, AnnealOptions{Seed: 1, Iterations: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if cost != 0 {
		t.Errorf("annealing cost = %d, want 0 (task moved into [50, 60))", cost)
	}
	if s.Start[0] < 50 {
		t.Errorf("task start = %d, want >= 50", s.Start[0])
	}
}

func TestAnnealDeterministicPerSeed(t *testing.T) {
	inst, prof := testInstance(t, wfgen.Eager, 50, 2, power.S1, 2)
	mk := func() int64 {
		s, err := Greedy(context.Background(), inst, power.SingleZone(prof), Options{Score: ScorePressure}, nil)
		if err != nil {
			t.Fatal(err)
		}
		cost, err := Anneal(context.Background(), inst, power.SingleZone(prof), s, AnnealOptions{Seed: 7, Iterations: 3000})
		if err != nil {
			t.Fatal(err)
		}
		return cost
	}
	if a, b := mk(), mk(); a != b {
		t.Errorf("same seed gave different costs: %d vs %d", a, b)
	}
}

func TestAnnealOptionsDefaults(t *testing.T) {
	var o AnnealOptions
	if o.iterations(10) != 200 {
		t.Errorf("default iterations = %d, want 200", o.iterations(10))
	}
	if o.cooling() != 0.999 {
		t.Errorf("default cooling = %v", o.cooling())
	}
	o = AnnealOptions{Iterations: 5, Cooling: 0.9}
	if o.iterations(10) != 5 || o.cooling() != 0.9 {
		t.Error("explicit options ignored")
	}
}
