package core

import (
	"context"
	"testing"

	"repro/internal/ceg"
	"repro/internal/dag"
	"repro/internal/exact"
	"repro/internal/heft"
	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/rng"
	"repro/internal/schedule"
	"repro/internal/wfgen"
)

// ghostZonedInstance builds an instance on a 2-zone cluster whose zone 1
// holds a single zero-idle processor no task is mapped to, so every node
// is evaluated in zone 0. Against a 2-zone set whose zone 0 carries the
// cluster-wide profile, every algorithm must reproduce the one-zone run
// exactly (the equivalence pin of the zone model).
func ghostZonedInstance(tb testing.TB, fam wfgen.Family, n int, seed uint64, factor float64, sc power.Scenario) (*ceg.Instance, *power.Profile, *power.ZoneSet) {
	tb.Helper()
	types := []platform.ProcType{
		{Name: "PT1", Speed: 4, Idle: 40, Work: 10},
		{Name: "PT3", Speed: 8, Idle: 80, Work: 40},
		{Name: "PT6", Speed: 32, Idle: 200, Work: 100},
		{Name: "ghost", Speed: 1, Idle: 0, Work: 1},
	}
	cluster := platform.NewZoned(types, []int{4, 4, 4, 1},
		[]int{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1}, seed)
	d, err := wfgen.Generate(fam, n, seed)
	if err != nil {
		tb.Fatal(err)
	}
	h, err := heft.Schedule(d, cluster)
	if err != nil {
		tb.Fatal(err)
	}
	for v, p := range h.Proc {
		if p == 12 {
			tb.Fatalf("HEFT mapped task %d to the ghost processor", v)
		}
	}
	inst, err := ceg.Build(d, ceg.FromHEFT(h.Proc, h.Order, h.Finish), cluster)
	if err != nil {
		tb.Fatal(err)
	}
	D := ASAPMakespan(inst)
	T := int64(float64(D) * factor)
	if T < D {
		T = D
	}
	gmin, gmax := power.PlatformBounds(inst.TotalIdlePower(), cluster.ComputeWork())
	prof, err := power.Generate(sc, T, 24, gmin, gmax, rng.New(seed))
	if err != nil {
		tb.Fatal(err)
	}
	empty, err := power.Generate(power.S2, T, 16, 3, 30, rng.New(seed+1))
	if err != nil {
		tb.Fatal(err)
	}
	zs, err := power.NewZoneSet(
		power.Zone{Name: "main", Profile: prof},
		power.Zone{Name: "empty", Profile: empty},
	)
	if err != nil {
		tb.Fatal(err)
	}
	return inst, prof, zs
}

// TestRunGhostZoneMatchesOneZone pins that a multi-zone run with all
// processors (and hence all nodes) in one zone produces schedule-identical
// results to the one-zone run, across every variant family.
func TestRunGhostZoneMatchesOneZone(t *testing.T) {
	ctx := context.Background()
	for seed := uint64(1); seed <= 3; seed++ {
		fam := wfgen.Families()[int(seed)%4]
		inst, prof, zs := ghostZonedInstance(t, fam, 40, seed, 2, power.Scenarios()[int(seed)%4])
		for _, opt := range AllVariants() {
			one, ost, err := Run(ctx, inst, power.SingleZone(prof), opt)
			if err != nil {
				t.Fatalf("%s: %v", opt.Name(), err)
			}
			zoned, zst, err := Run(ctx, inst, zs, opt)
			if err != nil {
				t.Fatalf("%s zoned: %v", opt.Name(), err)
			}
			for v := range one.Start {
				if one.Start[v] != zoned.Start[v] {
					t.Fatalf("seed %d %s: node %d starts differ: %d vs %d",
						seed, opt.Name(), v, one.Start[v], zoned.Start[v])
				}
			}
			if ost.Cost != zst.Cost || ost.GreedyCost != zst.GreedyCost ||
				ost.LSMoves != zst.LSMoves || ost.FallbackStarts != zst.FallbackStarts {
				t.Fatalf("seed %d %s: stats differ: %+v vs %+v", seed, opt.Name(), ost, zst)
			}
			// Re-evaluating the zoned schedule gives the reported cost
			// (schedule's own ghost-zone test holds CarbonCost to the
			// brute oracle on this zone-set shape).
			if c := schedule.CarbonCost(inst, zoned, zs); c != zst.Cost {
				t.Fatalf("seed %d %s: CarbonCost %d != reported cost %d", seed, opt.Name(), c, zst.Cost)
			}
		}
		// The annealer too.
		sa := ASAP(inst)
		sb := sa.Clone()
		ca, err := Anneal(ctx, inst, power.SingleZone(prof), sa, AnnealOptions{Iterations: 2000, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		cb, err := Anneal(ctx, inst, zs, sb, AnnealOptions{Iterations: 2000, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if ca != cb {
			t.Fatalf("seed %d: anneal costs differ: %d vs %d", seed, ca, cb)
		}
		for v := range sa.Start {
			if sa.Start[v] != sb.Start[v] {
				t.Fatalf("seed %d anneal: node %d starts differ", seed, v)
			}
		}
	}
}

// TestRunRejectsMismatchedZoneCount: a multi-zone set against a
// cluster with a different zone count is a configuration error, not a
// silent misevaluation.
func TestRunRejectsMismatchedZoneCount(t *testing.T) {
	inst, prof := testInstance(t, wfgen.Bacass, 30, 1, power.S1, 2)
	zs, err := power.NewZoneSet(
		power.Zone{Name: "a", Profile: prof},
		power.Zone{Name: "b", Profile: prof.Clone()},
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Run(context.Background(), inst, zs, Options{}); err == nil {
		t.Error("Run accepted a 2-zone set on a 1-zone cluster")
	}
	if _, _, err := exact.Solve(context.Background(), inst, zs, exact.Options{}); err == nil {
		t.Error("exact.Solve accepted a 2-zone set on a 1-zone cluster")
	}
}

// antiCorrelatedPair builds a 2-processor, 2-zone instance with two
// independent equal tasks, one per zone, and opposite green windows:
// zone "early" is green in the first half of the horizon, zone "late" in
// the second.
func antiCorrelatedPair(tb testing.TB) (*ceg.Instance, *power.ZoneSet) {
	tb.Helper()
	types := []platform.ProcType{{Name: "A", Speed: 1, Idle: 1, Work: 10}}
	cluster := platform.NewZoned(types, []int{2}, []int{0, 1}, 1)
	d := dag.New(2)
	d.SetWeight(0, 4)
	d.SetWeight(1, 4)
	m := &ceg.Mapping{Proc: []int{0, 1}, Order: [][]int{{0}, {1}}, Finish: []int64{4, 4}}
	inst, err := ceg.Build(d, m, cluster)
	if err != nil {
		tb.Fatal(err)
	}
	mk := func(b0, b1 int64) *power.Profile {
		p, err := power.NewProfile([]int64{10, 10}, []int64{b0, b1})
		if err != nil {
			tb.Fatal(err)
		}
		return p
	}
	zs, err := power.NewZoneSet(
		power.Zone{Name: "early", Profile: mk(20, 1)},
		power.Zone{Name: "late", Profile: mk(1, 20)},
	)
	if err != nil {
		tb.Fatal(err)
	}
	return inst, zs
}

// TestZoneAwareSearchShiftsPerZone: under anti-correlated zone supply the
// per-zone evaluation places each task into its own zone's green window
// — the whole point of the zone model; a cluster-wide profile could never
// separate them.
func TestZoneAwareSearchShiftsPerZone(t *testing.T) {
	ctx := context.Background()
	inst, zs := antiCorrelatedPair(t)

	// Exact optimum: task 0 (zone early) inside [0, 10), task 1 (zone
	// late) inside [10, 20), each fully covered by its green budget.
	s, cost, err := exact.Solve(ctx, inst, zs, exact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cost != 0 {
		t.Fatalf("optimal zoned cost %d, want 0", cost)
	}
	if !(s.Start[0]+inst.Dur[0] <= 10 && s.Start[1] >= 10) {
		t.Errorf("optimal starts %v do not respect the zones' green windows", s.Start)
	}

	// The hill climber finds the same split from the ASAP start (both
	// tasks at 0) — moving the late-zone task right, keeping the early
	// one, i.e. different directions per zone.
	ls := ASAP(inst)
	if err := LocalSearch(ctx, inst, zs, ls, 20, nil); err != nil {
		t.Fatal(err)
	}
	if got := schedule.CarbonCost(inst, ls, zs); got != 0 {
		t.Errorf("local search cost %d, want 0 (starts %v)", got, ls.Start)
	}
	if !(ls.Start[0]+inst.Dur[0] <= 10 && ls.Start[1] >= 10) {
		t.Errorf("local search starts %v not zone-separated", ls.Start)
	}

	// Under a swapped zone set the same search separates them the other
	// way around.
	swapped, err := power.NewZoneSet(
		power.Zone{Name: "early", Profile: zs.Profile(1).Clone()},
		power.Zone{Name: "late", Profile: zs.Profile(0).Clone()},
	)
	if err != nil {
		t.Fatal(err)
	}
	lsw := ASAP(inst)
	if err := LocalSearch(ctx, inst, swapped, lsw, 20, nil); err != nil {
		t.Fatal(err)
	}
	if got := schedule.CarbonCost(inst, lsw, swapped); got != 0 {
		t.Errorf("swapped local search cost %d, want 0", got)
	}
	if !(lsw.Start[0] >= 10 && lsw.Start[1]+inst.Dur[1] <= 10) {
		t.Errorf("swapped starts %v not separated the other way", lsw.Start)
	}
}
