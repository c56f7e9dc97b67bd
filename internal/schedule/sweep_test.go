package schedule

import (
	"reflect"
	"testing"

	"repro/internal/ceg"
	"repro/internal/dag"
	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/rng"
)

// sweepBreakdown is CostBreakdown with the sweep's representation forced
// instead of picked by sweepNodes' rule.
func sweepBreakdown(inst *ceg.Instance, s *Schedule, zs *power.ZoneSet, sweep func(*ceg.Instance, *Schedule, *power.Profile, int64, []int, func(j int, from, to, totalPower int64))) []ZoneCost {
	out := make([]ZoneCost, zs.NumZones())
	nodes := zoneNodes(inst, zs)
	for z, zone := range zs.Zones {
		ivs := make([]IntervalCost, len(zone.Profile.Intervals))
		for j, iv := range zone.Profile.Intervals {
			ivs[j] = IntervalCost{Start: iv.Start, End: iv.End, Budget: iv.Budget}
		}
		out[z] = ZoneCost{Zone: zone.Name, Intervals: ivs}
		sweep(inst, s, zone.Profile, zoneIdle(inst, zs, z), nodes[z], func(j int, from, to, totalPower int64) {
			ivs[j].Energy += totalPower * (to - from)
			if over := totalPower - ivs[j].Budget; over > 0 {
				ivs[j].Brown += over * (to - from)
				out[z].Cost += over * (to - from)
			}
		})
		for j := range ivs {
			ivs[j].Green = ivs[j].Energy - ivs[j].Brown
		}
	}
	return out
}

// TestSweepRepresentationsAgree holds CarbonCost and CostBreakdown, which
// sweep with whichever representation sweepNodes' rule picks, to the
// counted sweep, the sorted sweep and CarbonCostBrute, interval by
// interval. A cost evaluation does not need a valid schedule, so the cases
// include what only an invalid one has: starts before 0 and finishes past
// T.
func TestSweepRepresentationsAgree(t *testing.T) {
	type sweepCase struct {
		name string
		inst *ceg.Instance
		zs   *power.ZoneSet
		s    *Schedule
	}
	var cases []sweepCase
	for seed := uint64(1); seed <= 6; seed++ {
		inst, zs, s := zonedHEFTInstance(t, 30+10*int(seed), seed, 1+int(seed%3))
		cases = append(cases, sweepCase{"asap", inst, zs, s})
		// Random starts from before 0 to past T.
		r := rng.New(seed)
		scattered := s.Clone()
		for v := range scattered.Start {
			scattered.Start[v] = r.IntRange(-10, zs.T()+10)
		}
		cases = append(cases, sweepCase{"scattered", inst, zs, scattered})
	}

	// One processor per zone, a three-task chain on the first: the second
	// zone has no nodes, and tasks 0 and 1 abut at t = 4, an instant with
	// two events and no net change of power.
	cluster := platform.NewZoned([]platform.ProcType{{Name: "U", Speed: 1, Idle: 2, Work: 3}}, []int{2}, []int{0, 1}, 1)
	d := dag.New(3)
	for v, w := range []int64{4, 2, 3} {
		d.SetWeight(v, w)
	}
	inst, err := ceg.Build(d, &ceg.Mapping{Proc: []int{0, 0, 0}, Order: [][]int{{0, 1, 2}, nil}, Finish: []int64{4, 6, 9}}, cluster)
	if err != nil {
		t.Fatal(err)
	}
	busy, err := power.NewProfile([]int64{5, 3, 4}, []int64{3, 6, 1})
	if err != nil {
		t.Fatal(err)
	}
	zs, err := power.NewZoneSet(power.Zone{Name: "busy", Profile: busy}, power.Zone{Name: "empty", Profile: power.Constant(12, 1)})
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, sweepCase{"abutting tasks, empty zone", inst, zs, &Schedule{Start: []int64{0, 4, 7}}})

	picked := map[bool]int{}
	for _, c := range cases {
		for z, nodes := range zoneNodes(c.inst, c.zs) {
			picked[c.zs.Profile(z).T() <= sweepSlotsPerNode*int64(sweptCount(c.inst, nodes))]++
		}
		want := CarbonCostBrute(c.inst, c.s, c.zs)
		if got := CarbonCost(c.inst, c.s, c.zs); got != want {
			t.Errorf("%s: CarbonCost %d, brute force %d", c.name, got, want)
		}
		got := CostBreakdown(c.inst, c.s, c.zs)
		counted := sweepBreakdown(c.inst, c.s, c.zs, sweepCounted)
		sorted := sweepBreakdown(c.inst, c.s, c.zs, sweepSorted)
		var sum int64
		for z := range got {
			if !reflect.DeepEqual(counted[z], got[z]) || !reflect.DeepEqual(sorted[z], got[z]) {
				t.Errorf("%s: zone %d costs %d by CostBreakdown, %d by the counted sweep, %d by the sorted sweep (or their intervals differ)",
					c.name, z, got[z].Cost, counted[z].Cost, sorted[z].Cost)
			}
			sum += got[z].Cost
		}
		if sum != want {
			t.Errorf("%s: breakdown sums to %d, brute force %d", c.name, sum, want)
		}
	}
	if picked[true] == 0 || picked[false] == 0 {
		t.Errorf("the cases fall on one side of sweepNodes' rule only: %d zones counted, %d sorted", picked[true], picked[false])
	}
}
