package cawosched_test

import (
	"context"
	"testing"

	cawosched "repro"
	"repro/internal/solve"
)

// greenBrownSetup builds the mapping-layer acceptance scenario: a 2-zone
// cluster of identical processors whose zones are maximally
// anti-correlated — zone 0 ("brown") has no green power at all, zone 1
// ("green") is fully covered — plus a workflow of independent tasks that
// EFT spreads over both zones for speed. With deadline slack, a
// carbon-aware mapping can serialize the work inside the green zone.
func greenBrownSetup(t *testing.T) (*cawosched.DAG, *cawosched.Cluster, *cawosched.ZoneSet) {
	t.Helper()
	wf := cawosched.NewWorkflow(6)
	for v := 0; v < 6; v++ {
		wf.SetWeight(v, 32) // dur 4 on every proc
	}
	cluster := cawosched.NewZonedCluster(
		[]cawosched.ProcType{{Name: "A", Speed: 8, Idle: 1, Work: 10}},
		[]int{4}, []int{0, 0, 1, 1}, 1)
	zs, err := cawosched.NewZoneSet(
		cawosched.Zone{Name: "brown", Profile: cawosched.ConstantProfile(48, 0)},
		cawosched.Zone{Name: "green", Profile: cawosched.ConstantProfile(48, 100)},
	)
	if err != nil {
		t.Fatal(err)
	}
	return wf, cluster, zs
}

// greenWorkShare returns the share of busy task time placed on
// green-zone (zone 1) processors.
func greenWorkShare(inst *cawosched.Instance, s *cawosched.Schedule) float64 {
	var green, total int64
	for _, e := range cawosched.ExportSchedule(inst, s) {
		dur := e.End - e.Start
		total += dur
		if inst.Cluster.ZoneOf(e.Proc) == 1 {
			green += dur
		}
	}
	if total == 0 {
		return 0
	}
	return float64(green) / float64(total)
}

// TestMapAndSolveShiftsWorkToGreenZone is the anti-correlated two-zone
// integration test through the facade pipeline: MapAndSolve must beat the
// fixed-mapping plan and place the bulk of the work in the green zone,
// with the per-zone CostBreakdownZones shares showing the brown zone
// reduced to its idle floor.
func TestMapAndSolveShiftsWorkToGreenZone(t *testing.T) {
	wf, cluster, zs := greenBrownSetup(t)

	fixed, err := cawosched.PlanHEFT(wf, cluster)
	if err != nil {
		t.Fatal(err)
	}
	opt := cawosched.Options{Score: cawosched.ScorePressureW, Refined: true, LocalSearch: true}
	_, fixedStats, err := cawosched.RunZonesContext(context.Background(), fixed, zs, opt)
	if err != nil {
		t.Fatal(err)
	}

	ms, err := cawosched.MapAndSolve(context.Background(), wf, cluster, zs, cawosched.MapSolveOptions{Sched: opt})
	if err != nil {
		t.Fatal(err)
	}
	if ms.Cost > fixedStats.Cost {
		t.Fatalf("map-search cost %d > fixed-mapping cost %d", ms.Cost, fixedStats.Cost)
	}
	if ms.Cost >= fixedStats.Cost {
		t.Fatalf("map-search cost %d does not strictly beat the fixed mapping %d on the anti-correlated instance", ms.Cost, fixedStats.Cost)
	}
	if !ms.Policy.ZoneAware() {
		t.Errorf("winning policy %s is not zone-aware", ms.Policy)
	}
	if share := greenWorkShare(ms.Inst, ms.Schedule); share < 0.8 {
		t.Errorf("map-search placed only %.0f%% of the work in the green zone", 100*share)
	}

	// Per-zone accounting: the brown zone of the winning plan is down to
	// its idle floor (no task runs there), the green zone is carbon-free.
	bz := cawosched.CostBreakdownZones(ms.Inst, ms.Schedule, zs)
	if len(bz) != 2 {
		t.Fatalf("breakdown has %d zones", len(bz))
	}
	idleFloor := ms.Inst.ZoneIdlePower(0) * 48
	if bz[0].Cost != idleFloor {
		t.Errorf("brown zone cost %d, want the bare idle floor %d", bz[0].Cost, idleFloor)
	}
	if bz[1].Cost != 0 {
		t.Errorf("green zone cost %d, want 0", bz[1].Cost)
	}
}

// TestSolverMapSearchRequest drives the same scenario through the Solver
// request path: Request.MapSearch must return the winning mapping, beat
// the fixed-mapping request, and round-trip through the solve cache.
func TestSolverMapSearchRequest(t *testing.T) {
	wf, cluster, zs := greenBrownSetup(t)
	solver := cawosched.NewSolver(cluster)

	fixed, err := solver.Solve(context.Background(), cawosched.Request{Workflow: wf, Zones: zs})
	if err != nil {
		t.Fatal(err)
	}
	if fixed.Mapping != "heft" {
		t.Errorf("fixed-mapping response reports mapping %q, want heft", fixed.Mapping)
	}
	ms, err := solver.Solve(context.Background(), cawosched.Request{Workflow: wf, Zones: zs, MapSearch: true})
	if err != nil {
		t.Fatal(err)
	}
	if ms.Cost >= fixed.Cost {
		t.Fatalf("map-search cost %d, fixed %d: want a strict improvement", ms.Cost, fixed.Cost)
	}
	pol, err := cawosched.ParseMappingPolicy(ms.Mapping)
	if err != nil {
		t.Fatalf("response mapping %q: %v", ms.Mapping, err)
	}
	if !pol.ZoneAware() {
		t.Errorf("winning mapping %s is not zone-aware", ms.Mapping)
	}
	if share := greenWorkShare(ms.Instance, ms.Schedule); share < 0.8 {
		t.Errorf("map-search placed only %.0f%% of the work in the green zone", 100*share)
	}
	if err := cawosched.Validate(ms.Instance, ms.Schedule, ms.Deadline); err != nil {
		t.Error(err)
	}

	again, err := solver.Solve(context.Background(), cawosched.Request{Workflow: wf, Zones: zs, MapSearch: true})
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit || again.Cost != ms.Cost || again.Mapping != ms.Mapping {
		t.Errorf("repeat map-search: hit=%v cost %d/%d mapping %q/%q",
			again.CacheHit, again.Cost, ms.Cost, again.Mapping, ms.Mapping)
	}
}

// TestSolverMappingCacheIdentity is the cache-correctness pin: the same
// DAG under different mapping policies must occupy distinct plan-memo and
// solve-cache entries — no collisions, and every repeat a hit.
func TestSolverMappingCacheIdentity(t *testing.T) {
	wf, cluster, zs := greenBrownSetup(t)
	solver := cawosched.NewSolver(cluster)
	ctx := context.Background()

	reqs := []cawosched.Request{
		{Workflow: wf, Zones: zs},
		{Workflow: wf, Zones: zs, MappingPolicy: cawosched.MapZoneGreen},
		{Workflow: wf, Zones: zs, MappingPolicy: cawosched.MapLowPower},
		{Workflow: wf, Zones: zs, MapSearch: true},
	}
	costs := make([]int64, len(reqs))
	for i, req := range reqs {
		res, err := solver.Solve(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if res.CacheHit {
			t.Fatalf("request %d was a solve-cache hit on first sight (mapping collision)", i)
		}
		costs[i] = res.Cost
	}
	st := solver.Stats()
	if st.SolveMisses != int64(len(reqs)) || st.SolveHits != 0 {
		t.Fatalf("after first pass: SolveMisses %d SolveHits %d, want %d/0", st.SolveMisses, st.SolveHits, len(reqs))
	}
	// One plan-memo entry per distinct mapping: heft, zonegreen, lowpower,
	// plus map-search's energy and zoneenergy (zonegreen and lowpower are
	// shared with the single-policy requests, heft with the base plan).
	if st.PlanMisses != 5 {
		t.Errorf("PlanMisses %d, want 5 distinct (policy, zone-digest) plans", st.PlanMisses)
	}

	// Second pass: everything must come from the solve cache with the
	// identical cost, building no new plans.
	for i, req := range reqs {
		res, err := solver.Solve(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if !res.CacheHit || res.Cost != costs[i] {
			t.Errorf("repeat request %d: hit=%v cost %d, want hit with cost %d", i, res.CacheHit, res.Cost, costs[i])
		}
	}
	st2 := solver.Stats()
	if st2.SolveHits != int64(len(reqs)) {
		t.Errorf("SolveHits %d, want %d", st2.SolveHits, len(reqs))
	}
	if st2.PlanMisses != st.PlanMisses {
		t.Errorf("repeat pass built %d new plans", st2.PlanMisses-st.PlanMisses)
	}

	// The zone-aware plan is keyed by the zone digest: the same policy
	// under a different supply is a new plan and a new solve entry.
	other, err := cawosched.NewZoneSet(
		cawosched.Zone{Name: "brown", Profile: cawosched.ConstantProfile(48, 100)},
		cawosched.Zone{Name: "green", Profile: cawosched.ConstantProfile(48, 0)},
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := solver.Solve(ctx, cawosched.Request{Workflow: wf, Zones: other, MappingPolicy: cawosched.MapZoneGreen})
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit {
		t.Error("zonegreen under a different supply served from cache")
	}
	if got := solver.Stats().PlanMisses; got != st.PlanMisses+1 {
		t.Errorf("PlanMisses %d, want %d (new zone digest → new plan)", got, st.PlanMisses+1)
	}

	// Invalid mapping inputs are rejected with ErrInvalidRequest.
	if _, err := solver.Solve(ctx, cawosched.Request{Workflow: wf, Zones: zs, MappingPolicy: cawosched.MappingPolicy(99)}); err == nil {
		t.Error("unknown mapping policy accepted")
	}
	inst, _, err := solver.Plan(ctx, wf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := solver.Solve(ctx, cawosched.Request{Instance: inst, Zones: zs, MapSearch: true}); err == nil {
		t.Error("map-search accepted for a prebuilt instance")
	}
}

// TestParseMapping pins the mapping spellings shared by the CLIs and the
// wire format.
func TestParseMapping(t *testing.T) {
	cases := []struct {
		in     string
		pol    cawosched.MappingPolicy
		search bool
		ok     bool
	}{
		{"", cawosched.MapEFT, false, true},
		{"fixed", cawosched.MapEFT, false, true},
		{"heft", cawosched.MapEFT, false, true},
		{"lowpower", cawosched.MapLowPower, false, true},
		{"energy", cawosched.MapEnergyPerWork, false, true},
		{"zonegreen", cawosched.MapZoneGreen, false, true},
		{"zoneenergy", cawosched.MapZoneEnergyPerWork, false, true},
		{"map-search", cawosched.MapEFT, true, true},
		{"bogus", 0, false, false},
	}
	for _, c := range cases {
		pol, search, err := solve.ParseMapping(c.in)
		if c.ok && (err != nil || pol != c.pol || search != c.search) {
			t.Errorf("ParseMapping(%q) = %v, %v, %v", c.in, pol, search, err)
		}
		if !c.ok && err == nil {
			t.Errorf("ParseMapping(%q) accepted", c.in)
		}
	}
}
