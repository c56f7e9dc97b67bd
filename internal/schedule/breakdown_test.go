package schedule

import (
	"testing"

	"repro/internal/power"
)

// TestCostBreakdownConsistency: the per-interval breakdown must tile the
// profile exactly, split every interval's energy into green + brown, and
// sum its brown parts to the total carbon cost.
func TestCostBreakdownConsistency(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		inst, prof, s := randomHEFTInstance(t, 40, seed)
		zones := CostBreakdown(inst, s, power.SingleZone(prof))
		if len(zones) != 1 || zones[0].Zone != power.DefaultZoneName {
			t.Fatalf("seed %d: one-zone breakdown = %d zones, first %q", seed, len(zones), zones[0].Zone)
		}
		bd := zones[0].Intervals
		if len(bd) != prof.J() {
			t.Fatalf("seed %d: %d breakdown rows for %d intervals", seed, len(bd), prof.J())
		}
		var brown, energy int64
		for j, ic := range bd {
			iv := prof.Intervals[j]
			if ic.Start != iv.Start || ic.End != iv.End || ic.Budget != iv.Budget {
				t.Fatalf("seed %d: row %d = %+v does not match interval %+v", seed, j, ic, iv)
			}
			if ic.Green+ic.Brown != ic.Energy {
				t.Fatalf("seed %d: row %d: green %d + brown %d != energy %d", seed, j, ic.Green, ic.Brown, ic.Energy)
			}
			if ic.Green < 0 || ic.Brown < 0 || ic.Energy < 0 {
				t.Fatalf("seed %d: row %d has negative component: %+v", seed, j, ic)
			}
			if ic.Green > ic.Budget*iv.Len() {
				t.Fatalf("seed %d: row %d consumed %d green > budgeted %d", seed, j, ic.Green, ic.Budget*iv.Len())
			}
			brown += ic.Brown
			energy += ic.Energy
		}
		if want := CarbonCost(inst, s, power.SingleZone(prof)); brown != want {
			t.Fatalf("seed %d: breakdown brown sum %d != carbon cost %d", seed, brown, want)
		}
		// Total energy over the horizon: idle floor is always drawn.
		if floor := inst.TotalIdlePower() * prof.T(); energy < floor {
			t.Fatalf("seed %d: total energy %d below idle floor %d", seed, energy, floor)
		}
	}
}

// TestCostBreakdownHandComputed checks one tiny instance by hand: a single
// unit-speed processor (idle 2, work 3) running a weight-4 task at t=0
// under a two-interval profile.
func TestCostBreakdownHandComputed(t *testing.T) {
	inst := chainInstance(t, 1, []int64{4}, 2, 3)
	s := New(inst.N())
	prof, err := power.NewProfile([]int64{2, 8}, []int64{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	bd := CostBreakdown(inst, s, power.SingleZone(prof))[0].Intervals
	// Interval 0 [0,2): power 5, budget 1 → energy 10, brown 8, green 2.
	// Interval 1 [2,10): busy [2,4) power 5 budget 4 → brown 2;
	//                    idle [4,10) power 2 ≤ 4 → brown 0; energy 10+12=22.
	want := []IntervalCost{
		{Start: 0, End: 2, Budget: 1, Energy: 10, Green: 2, Brown: 8},
		{Start: 2, End: 10, Budget: 4, Energy: 22, Green: 20, Brown: 2},
	}
	if len(bd) != len(want) {
		t.Fatalf("got %d rows, want %d", len(bd), len(want))
	}
	for j := range want {
		if bd[j] != want[j] {
			t.Errorf("row %d = %+v, want %+v", j, bd[j], want[j])
		}
	}
}
