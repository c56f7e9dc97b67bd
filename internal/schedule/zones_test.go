package schedule

import (
	"testing"

	"repro/internal/ceg"
	"repro/internal/heft"
	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/rng"
	"repro/internal/wfgen"
)

// zonedHEFTInstance builds a workflow instance on a round-robin K-zone
// small cluster with one independently generated profile per zone.
func zonedHEFTInstance(t testing.TB, n int, seed uint64, zones int) (*ceg.Instance, *power.ZoneSet, *Schedule) {
	t.Helper()
	fam := wfgen.Families()[int(seed%4)]
	d, err := wfgen.Generate(fam, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	cluster := platform.SmallZoned(seed, zones)
	h, err := heft.Schedule(d, cluster)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := ceg.Build(d, ceg.FromHEFT(h.Proc, h.Order, h.Finish), cluster)
	if err != nil {
		t.Fatal(err)
	}
	s := asap(inst)
	T := Makespan(inst, s) * 2
	specs := make([]power.ZoneSpec, zones)
	for z := 0; z < zones; z++ {
		gmin, gmax := power.PlatformBounds(inst.ZoneIdlePower(z), cluster.ZoneComputeWork(z))
		specs[z] = power.ZoneSpec{
			Name:     string(rune('a' + z)),
			Scenario: power.Scenarios()[z%4],
			Gmin:     gmin,
			Gmax:     gmax,
		}
	}
	zs, err := power.GenerateZones(specs, T, 24, seed)
	if err != nil {
		t.Fatal(err)
	}
	return inst, zs, s
}

// TestZoneCostMatchesBrute cross-checks the multi-zone sweep against the
// per-zone per-time-unit oracle.
func TestZoneCostMatchesBrute(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		for _, zones := range []int{2, 3} {
			inst, zs, s := zonedHEFTInstance(t, 30, seed, zones)
			sweep := CarbonCost(inst, s, zs)
			brute := CarbonCostBrute(inst, s, zs)
			if sweep != brute {
				t.Errorf("seed %d zones %d: sweep %d != brute %d", seed, zones, sweep, brute)
			}
			if got := zonesDrawCost(NewZoneTimelines(inst, s, zs)); got != sweep {
				t.Errorf("seed %d zones %d: timelines %d != sweep %d", seed, zones, got, sweep)
			}
			bz := CostBreakdown(inst, s, zs)
			var sum int64
			for _, z := range bz {
				sum += z.Cost
			}
			if sum != sweep {
				t.Errorf("seed %d zones %d: breakdown sum %d != %d", seed, zones, sum, sweep)
			}
		}
	}
}

// TestMultiZoneAllProcsInOneZoneMatchesOneZone is the equivalence pin of
// the zone model: with every *node* evaluated in zone 0 and the extra
// zones empty, a multi-zone evaluation must reproduce the one-zone
// numbers exactly (the empty zones contribute only their green floor,
// which is zero whenever budgets cover their — empty — idle floor of 0).
func TestMultiZoneAllProcsInOneZoneMatchesOneZone(t *testing.T) {
	// A cluster whose zone layout is multi-zone on paper but where the
	// HEFT mapping is forced onto zone-0 processors: build a 2-zone
	// cluster where zone 1 holds a single processor no task is mapped to.
	types := []platform.ProcType{
		{Name: "A", Speed: 4, Idle: 40, Work: 10},
		{Name: "B", Speed: 8, Idle: 80, Work: 40},
		{Name: "ghost", Speed: 1, Idle: 0, Work: 1},
	}
	cluster := platform.NewZoned(types, []int{3, 3, 1}, []int{0, 0, 0, 0, 0, 0, 1}, 9)
	d, err := wfgen.Generate(wfgen.Bacass, 40, 9)
	if err != nil {
		t.Fatal(err)
	}
	h, err := heft.Schedule(d, cluster)
	if err != nil {
		t.Fatal(err)
	}
	// Remap anything HEFT put on the ghost (zone 1) processor onto proc 0
	// so all nodes land in zone 0.
	for v, p := range h.Proc {
		if p == 6 {
			t.Fatalf("HEFT used the ghost processor for task %d; pick another workflow", v)
		}
	}
	inst, err := ceg.Build(d, ceg.FromHEFT(h.Proc, h.Order, h.Finish), cluster)
	if err != nil {
		t.Fatal(err)
	}
	s := asap(inst)
	T := Makespan(inst, s) * 2

	gmin, gmax := power.PlatformBounds(inst.TotalIdlePower(), cluster.ComputeWork())
	prof, err := power.Generate(power.S1, T, 24, gmin, gmax, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	other, err := power.Generate(power.S2, T, 24, 5, 50, rng.New(10))
	if err != nil {
		t.Fatal(err)
	}
	zs, err := power.NewZoneSet(
		power.Zone{Name: "main", Profile: prof},
		power.Zone{Name: "empty", Profile: other},
	)
	if err != nil {
		t.Fatal(err)
	}

	one := CarbonCost(inst, s, power.SingleZone(prof))
	if got := CarbonCost(inst, s, zs); got != one {
		t.Errorf("multi-zone all-in-one cost %d != one-zone %d", got, one)
	}
	if got := CarbonCostBrute(inst, s, zs); got != one {
		// Zone 1's idle floor is 0 and its budgets are ≥ 0, so it adds 0.
		t.Errorf("brute %d != one-zone %d", got, one)
	}
	tls := NewZoneTimelines(inst, s, zs)
	if got := zonesDrawCost(tls); got != one {
		t.Errorf("timelines %d != one-zone %d", got, one)
	}
	// Per-task moves route to zone 0's timeline and report the same gains
	// as a one-zone timeline.
	oneTL := oneZoneTimeline(inst, s, prof)
	for v := 0; v < inst.N(); v += 7 {
		dur := inst.Dur[v]
		_, work := inst.ProcPower(v)
		cur := s.Start[v]
		for delta := int64(-5); delta <= 5; delta += 5 {
			newA := cur + delta
			if newA < 0 || newA+dur > T {
				continue
			}
			if g1, g2 := tls.For(v).MoveGain(cur, newA, dur, work), oneTL.MoveGain(cur, newA, dur, work); g1 != g2 {
				t.Fatalf("node %d delta %d: zone gain %d != one-zone gain %d", v, delta, g1, g2)
			}
		}
	}
}

func TestCheckZones(t *testing.T) {
	inst, prof, _ := randomHEFTInstance(t, 20, 3)
	if err := CheckZones(inst, power.SingleZone(prof)); err != nil {
		t.Errorf("single zone rejected: %v", err)
	}
	two, err := power.NewZoneSet(
		power.Zone{Name: "a", Profile: prof},
		power.Zone{Name: "b", Profile: prof.Clone()},
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckZones(inst, two); err == nil {
		t.Error("2-zone set accepted for a 1-zone cluster")
	}
	zinst, zset, _ := zonedHEFTInstance(t, 20, 3, 2)
	if err := CheckZones(zinst, zset); err != nil {
		t.Errorf("matching multi-zone set rejected: %v", err)
	}
}
