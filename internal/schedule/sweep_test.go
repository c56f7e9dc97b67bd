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

// abuttingCase is one processor per zone and a three-task chain on the
// first, with every duration and interval length scaled by k: the second
// zone has no nodes, and tasks 0 and 1 abut at t = 4k, an instant with two
// events and no net change of power. Its cost is 32k.
func abuttingCase(t *testing.T, k int64) (*ceg.Instance, *power.ZoneSet, *Schedule) {
	t.Helper()
	cluster := platform.NewZoned([]platform.ProcType{{Name: "U", Speed: 1, Idle: 2, Work: 3}}, []int{2}, []int{0, 1}, 1)
	d := dag.New(3)
	for v, w := range []int64{4, 2, 3} {
		d.SetWeight(v, w*k)
	}
	inst, err := ceg.Build(d, &ceg.Mapping{Proc: []int{0, 0, 0}, Order: [][]int{{0, 1, 2}, nil}, Finish: []int64{4 * k, 6 * k, 9 * k}}, cluster)
	if err != nil {
		t.Fatal(err)
	}
	busy, err := power.NewProfile([]int64{5 * k, 3 * k, 4 * k}, []int64{3, 6, 1})
	if err != nil {
		t.Fatal(err)
	}
	zs, err := power.NewZoneSet(power.Zone{Name: "busy", Profile: busy}, power.Zone{Name: "empty", Profile: power.Constant(12*k, 1)})
	if err != nil {
		t.Fatal(err)
	}
	return inst, zs, &Schedule{Start: []int64{0, 4 * k, 7 * k}}
}

// TestSweepRepresentationsAgree holds CarbonCost and CostBreakdown, which
// sweep with whichever representation sweepNodes' rule picks, to the
// counted sweep, the sorted sweep over packed keys, the sorted sweep over
// a comparator (the keys' overflow branch) and CarbonCostBrute, interval
// by interval. A cost evaluation does not need a valid schedule, so the
// cases include what only an invalid one has: starts before 0, finishes
// at and past T, and tasks of zero duration; and events at equal times.
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
		// Random starts from before 0 to past T, some of them at 0 and T
		// exactly.
		r := rng.New(seed)
		scattered := s.Clone()
		for v := range scattered.Start {
			scattered.Start[v] = r.IntRange(-10, zs.T()+10)
		}
		scattered.Start[0], scattered.Start[1] = 0, zs.T()
		cases = append(cases, sweepCase{"scattered", inst, zs, scattered})
		// Every third task without duration: its start and finish
		// events fall on one instant. The instance is a fresh build,
		// so the durations of the other cases stay.
		inst, zs, s = zonedHEFTInstance(t, 30+10*int(seed), seed, 1+int(seed%3))
		for v := 0; v < inst.N(); v += 3 {
			inst.Dur[v] = 0
		}
		cases = append(cases, sweepCase{"zero durations", inst, zs, s})
	}
	inst, zs, s := abuttingCase(t, 1)
	cases = append(cases, sweepCase{"abutting tasks, empty zone", inst, zs, s})

	picked := map[bool]int{}
	for _, c := range cases {
		for z, nodes := range zoneNodes(c.inst, c.zs) {
			picked[countedSweep(c.inst, c.zs.Profile(z), nodes)]++
		}
		want := CarbonCostBrute(c.inst, c.s, c.zs)
		if got := CarbonCost(c.inst, c.s, c.zs); got != want {
			t.Errorf("%s: CarbonCost %d, brute force %d", c.name, got, want)
		}
		got := CostBreakdown(c.inst, c.s, c.zs)
		counted := sweepBreakdown(c.inst, c.s, c.zs, sweepCounted)
		keyed := sweepBreakdown(c.inst, c.s, c.zs, sweepSorted)
		compared := sweepBreakdown(c.inst, c.s, c.zs, sweepSortedFunc)
		var sum int64
		for z := range got {
			if !reflect.DeepEqual(counted[z], got[z]) || !reflect.DeepEqual(keyed[z], got[z]) || !reflect.DeepEqual(compared[z], got[z]) {
				t.Errorf("%s: zone %d costs %d by CostBreakdown, %d counted, %d sorted by key, %d sorted by comparator (or their intervals differ)",
					c.name, z, got[z].Cost, counted[z].Cost, keyed[z].Cost, compared[z].Cost)
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

// TestSweepKeyOverflow runs the sorted sweep where its packed keys would
// overflow: the abutting case stretched by 2^57 has T = 12·2^57 (61 bits)
// and three nodes in its busy zone (3 bits of slot), so CarbonCost and
// CostBreakdown take the comparator branch there. Stretching every time
// by k multiplies the cost by k, so the small case's brute-force cost is
// the oracle. The guard itself is pinned at the largest horizon whose
// keys still fit.
func TestSweepKeyOverflow(t *testing.T) {
	const k = 1 << 57
	small, smallZones, smallSched := abuttingCase(t, 1)
	unit := CarbonCostBrute(small, smallSched, smallZones)
	inst, zs, s := abuttingCase(t, k)
	busy := zoneNodes(inst, zs)[0]
	if _, ok := eventKeys(inst, s, zs.T(), busy); ok {
		t.Fatalf("T = %d with %d nodes: the keys fit, the case misses the overflow branch", zs.T(), len(busy))
	}
	if _, ok := eventKeys(inst, s, 1<<60-1, busy); !ok {
		t.Error("T = 2^60 - 1 with 3 nodes (3 bits of slot) fits in 63 bits, but eventKeys refused it")
	}
	if _, ok := eventKeys(inst, s, 1<<60, busy); ok {
		t.Error("T = 2^60 with 3 nodes does not fit in 63 bits, but eventKeys packed it")
	}
	if got := CarbonCost(inst, s, zs); got != unit*k {
		t.Errorf("CarbonCost %d, want %d·2^57 = %d", got, unit, unit*k)
	}
	var sum int64
	for _, zc := range CostBreakdown(inst, s, zs) {
		sum += zc.Cost
	}
	if sum != unit*k {
		t.Errorf("breakdown sums to %d, want %d", sum, unit*k)
	}
}
