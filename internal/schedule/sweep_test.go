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

// orderingNames names the orderings in failure messages.
var orderingNames = [...]string{counted: "counted", packed: "packed keys", compared: "comparator"}

// orderedBreakdown is CostBreakdown with the ordering of every zone's
// walk forced instead of picked by Draw.ordering. It also holds the walk
// to its contract: the runs tile [0, T) in time order, and none is empty
// or crosses the boundary of the interval it is reported in.
func orderedBreakdown(t *testing.T, inst *ceg.Instance, s *Schedule, zs *power.ZoneSet, o ordering) []ZoneCost {
	t.Helper()
	out := make([]ZoneCost, zs.NumZones())
	nodes := zoneNodes(inst, zs)
	for z, zone := range zs.Zones {
		ivs := make([]IntervalCost, len(zone.Profile.Intervals))
		for j, iv := range zone.Profile.Intervals {
			ivs[j] = IntervalCost{Start: iv.Start, End: iv.End, Budget: iv.Budget}
		}
		out[z] = ZoneCost{Zone: zone.Name, Intervals: ivs}
		idle := zoneIdle(inst, zs, z)
		var d Draw
		d.loadNodes(inst, s, nodes[z])
		var end int64
		d.walk(zone.Profile, o, func(j int, from, to, level int64) {
			if from != end || from >= to || from < ivs[j].Start || to > ivs[j].End {
				t.Errorf("zone %d, ordered by %s: run [%d, %d) in interval [%d, %d) after a run ending at %d",
					z, orderingNames[o], from, to, ivs[j].Start, ivs[j].End, end)
			}
			end = to
			ivs[j].Energy += (idle + level) * (to - from)
			if over := idle + level - ivs[j].Budget; over > 0 {
				ivs[j].Brown += over * (to - from)
				out[z].Cost += over * (to - from)
			}
		})
		if end != zone.Profile.T() {
			t.Errorf("zone %d, ordered by %s: the runs end at %d, T = %d", z, orderingNames[o], end, zone.Profile.T())
		}
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

// TestSweepRepresentationsAgree holds CarbonCost and CostBreakdown, whose
// walks take whichever ordering of the events Draw.ordering picks, to the
// one walk forced into each ordering — counted into a difference array,
// sorted as packed keys, sorted by a comparator (the keys' overflow
// branch) — interval by interval, and to CarbonCostBrute; and each forced
// walk to the runs Walk promises. A cost
// evaluation does not need a valid schedule, so the cases include what
// only an invalid one has: starts before 0, finishes at and past T, and
// tasks of zero duration; and events at equal times.
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

	orderings := []ordering{counted, packed, compared}
	picked := map[ordering]int{}
	for _, c := range cases {
		for z, nodes := range zoneNodes(c.inst, c.zs) {
			var d Draw
			d.loadNodes(c.inst, c.s, nodes)
			picked[d.ordering(c.zs.Profile(z).T())]++
		}
		want := CarbonCostBrute(c.inst, c.s, c.zs)
		if got := CarbonCost(c.inst, c.s, c.zs); got != want {
			t.Errorf("%s: CarbonCost %d, brute force %d", c.name, got, want)
		}
		got := CostBreakdown(c.inst, c.s, c.zs)
		var sum int64
		for z := range got {
			sum += got[z].Cost
		}
		if sum != want {
			t.Errorf("%s: breakdown sums to %d, brute force %d", c.name, sum, want)
		}
		for _, o := range orderings {
			forced := orderedBreakdown(t, c.inst, c.s, c.zs, o)
			for z := range got {
				if !reflect.DeepEqual(forced[z], got[z]) {
					t.Errorf("%s: zone %d costs %d by CostBreakdown, %d ordered by %s (or their intervals differ)",
						c.name, z, got[z].Cost, forced[z].Cost, orderingNames[o])
				}
			}
		}
	}
	if picked[counted] == 0 || picked[packed] == 0 {
		t.Errorf("the cases fall on one side of the counted ordering's rule only: %d zones counted, %d packed", picked[counted], picked[packed])
	}
}

// TestSweepKeyOverflow runs the walk where packed keys would overflow:
// the abutting case stretched by 2^57 has T = 12·2^57 (61 bits) and three
// nodes in its busy zone (six events, 3 bits of index), so CarbonCost and
// CostBreakdown order its events with the comparator. Stretching every time
// by k multiplies the cost by k, so the small case's brute-force cost is
// the oracle. The guard itself is pinned at the largest horizon whose
// keys still fit.
func TestSweepKeyOverflow(t *testing.T) {
	const k = 1 << 57
	small, smallZones, smallSched := abuttingCase(t, 1)
	unit := CarbonCostBrute(small, smallSched, smallZones)
	inst, zs, s := abuttingCase(t, k)
	busy := zoneNodes(inst, zs)[0]
	var d Draw
	d.loadNodes(inst, s, busy)
	if o := d.ordering(zs.T()); o != compared {
		t.Fatalf("T = %d with %d nodes: ordered by %s, the case misses the overflow branch", zs.T(), len(busy), orderingNames[o])
	}
	if o := d.ordering(1<<60 - 1); o != packed {
		t.Errorf("T = 2^60 - 1 with 3 nodes (3 bits of index) fits in 63 bits, but the walk orders by %s", orderingNames[o])
	}
	if o := d.ordering(1 << 60); o != compared {
		t.Errorf("T = 2^60 with 3 nodes does not fit in 63 bits, but the walk orders by %s", orderingNames[o])
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
