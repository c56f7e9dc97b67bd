package core

import (
	"context"

	"testing"

	"repro/internal/ceg"
	"repro/internal/heft"
	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/rng"
	"repro/internal/schedule"
	"repro/internal/wfgen"
)

// equivInstance builds a small mapped instance with a generated profile,
// mirroring the experiment pipeline but on a 4-processor cluster so the
// property test stays fast.
func equivInstance(t *testing.T, fam wfgen.Family, n int, seed uint64, factor float64, sc power.Scenario) (*ceg.Instance, *power.Profile) {
	t.Helper()
	d, err := wfgen.Generate(fam, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	cluster := platform.New([]platform.ProcType{
		{Name: "fast", Speed: 2, Idle: 2, Work: 9},
		{Name: "slow", Speed: 1, Idle: 1, Work: 4},
	}, []int{2, 2}, seed)
	h, err := heft.Schedule(d, cluster)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := ceg.Build(d, ceg.FromHEFT(h.Proc, h.Order, h.Finish), cluster)
	if err != nil {
		t.Fatal(err)
	}
	D := ASAPMakespan(inst)
	T := int64(float64(D)*factor + 0.5)
	gmin, gmax := power.PlatformBounds(inst.TotalIdlePower(), cluster.ComputeWork())
	prof, err := power.Generate(sc, T, 24, gmin, gmax, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return inst, prof
}

// TestLocalSearchMatchesUnitStep is the equivalence property of the
// interval-jumping rewrite: on seeded instances the accelerated scan must
// accept exactly the moves of the unit-step scan, producing identical
// start times (and therefore identical cost).
func TestLocalSearchMatchesUnitStep(t *testing.T) {
	fams := wfgen.Families()
	for seed := uint64(1); seed <= 6; seed++ {
		for _, mu := range []int64{3, 10, 30} {
			fam := fams[int(seed)%len(fams)]
			inst, prof := equivInstance(t, fam, 45, seed, 2, power.Scenarios()[int(seed)%4])
			s, _, err := Run(context.Background(), inst, power.SingleZone(prof), Options{Score: ScorePressureW, Refined: true})
			if err != nil {
				t.Fatal(err)
			}
			jump := s.Clone()
			step := s.Clone()
			var jumpStats, stepStats Stats
			LocalSearch(context.Background(), inst, power.SingleZone(prof), jump, mu, 1, &jumpStats)
			LocalSearchUnitStep(context.Background(), inst, power.SingleZone(prof), step, mu, &stepStats)
			for v := range jump.Start {
				if jump.Start[v] != step.Start[v] {
					t.Fatalf("seed %d mu %d: task %d start %d (jump) != %d (unit step)",
						seed, mu, v, jump.Start[v], step.Start[v])
				}
			}
			if jumpStats.LSMoves != stepStats.LSMoves || jumpStats.LSGain != stepStats.LSGain {
				t.Errorf("seed %d mu %d: stats diverge: jump %d moves/%d gain, step %d moves/%d gain",
					seed, mu, jumpStats.LSMoves, jumpStats.LSGain, stepStats.LSMoves, stepStats.LSGain)
			}
			if err := schedule.Validate(inst, jump, prof.T()); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestLocalSearchNeverWorseThanUnitStep is the weaker ≤ property on larger
// instances with the paper's full platform, guarding against any scenario
// where the scans could diverge: the interval-jumping result must never
// cost more than the unit-step result, and both must never exceed the
// greedy cost.
func TestLocalSearchNeverWorseThanUnitStep(t *testing.T) {
	if testing.Short() {
		t.Skip("large instances")
	}
	for seed := uint64(1); seed <= 3; seed++ {
		d, err := wfgen.Generate(wfgen.Eager, 120, seed)
		if err != nil {
			t.Fatal(err)
		}
		cluster := platform.Small(seed)
		h, err := heft.Schedule(d, cluster)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := ceg.Build(d, ceg.FromHEFT(h.Proc, h.Order, h.Finish), cluster)
		if err != nil {
			t.Fatal(err)
		}
		D := ASAPMakespan(inst)
		gmin, gmax := power.PlatformBounds(inst.TotalIdlePower(), cluster.ComputeWork())
		prof, err := power.Generate(power.S3, 2*D, 24, gmin, gmax, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		s, st, err := Run(context.Background(), inst, power.SingleZone(prof), Options{Score: ScoreSlack})
		if err != nil {
			t.Fatal(err)
		}
		greedyCost := st.Cost
		jump := s.Clone()
		step := s.Clone()
		LocalSearch(context.Background(), inst, power.SingleZone(prof), jump, DefaultMu, 1, nil)
		LocalSearchUnitStep(context.Background(), inst, power.SingleZone(prof), step, DefaultMu, nil)
		jumpCost := schedule.CarbonCost(inst, jump, power.SingleZone(prof))
		stepCost := schedule.CarbonCost(inst, step, power.SingleZone(prof))
		if jumpCost > stepCost {
			t.Errorf("seed %d: jump cost %d > unit-step cost %d", seed, jumpCost, stepCost)
		}
		if jumpCost > greedyCost {
			t.Errorf("seed %d: local search worsened cost %d > %d", seed, jumpCost, greedyCost)
		}
	}
}
