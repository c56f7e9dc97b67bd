package cawosched_test

import (
	"context"
	"errors"
	"testing"

	cawosched "repro"
)

// TestSolverZoneRequestPipeline drives the full zone-aware pipeline: on a
// 2-zone cluster a plain scenario request generates one profile per zone,
// the response carries per-zone supply and a cost that matches the
// zone-aware evaluator, and identical requests hit the solve cache.
func TestSolverZoneRequestPipeline(t *testing.T) {
	wf, err := cawosched.GenerateWorkflow(cawosched.Bacass, 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	solver := cawosched.NewSolver(cawosched.SmallZonedCluster(3, 2))
	req := cawosched.Request{
		Workflow:      wf,
		ZoneScenarios: []cawosched.Scenario{cawosched.S1, cawosched.S2},
		Seed:          3,
	}
	res, err := solver.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Zones == nil || res.Zones.NumZones() != 2 {
		t.Fatalf("response zones = %v", res.Zones)
	}
	if res.Profile != nil {
		t.Error("multi-zone response still carries a cluster-wide profile")
	}
	if got := cawosched.CarbonCostZones(res.Instance, res.Schedule, res.Zones); got != res.Cost {
		t.Errorf("cost %d != zone evaluation %d", res.Cost, got)
	}
	bz := cawosched.CostBreakdownZones(res.Instance, res.Schedule, res.Zones)
	var sum int64
	for _, z := range bz {
		sum += z.Cost
	}
	if sum != res.Cost {
		t.Errorf("breakdown sum %d != cost %d", sum, res.Cost)
	}
	if err := cawosched.Validate(res.Instance, res.Schedule, res.Deadline); err != nil {
		t.Error(err)
	}

	again, err := solver.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit || again.Cost != res.Cost {
		t.Errorf("repeat solve: hit=%v cost %d vs %d", again.CacheHit, again.Cost, res.Cost)
	}
	if st := solver.Stats(); st.SolveHits != 1 {
		t.Errorf("SolveHits = %d, want 1", st.SolveHits)
	}

	// A different zone scenario assignment is a different cache identity.
	req.ZoneScenarios = []cawosched.Scenario{cawosched.S2, cawosched.S1}
	other, err := solver.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if other.CacheHit {
		t.Error("swapped zone scenarios served from cache")
	}
}

// TestSolveCacheZoneDigestPinsLegacy is the cache-digest half of the
// equivalence pin: a request wrapping the profile in a degenerate
// single-zone set keys identically to the legacy bare-profile request, so
// the second one is a cache hit with the identical schedule.
func TestSolveCacheZoneDigestPinsLegacy(t *testing.T) {
	wf, err := cawosched.GenerateWorkflow(cawosched.Eager, 40, 5)
	if err != nil {
		t.Fatal(err)
	}
	solver := cawosched.NewSolver(cawosched.SmallCluster(5))
	inst, _, err := solver.Plan(context.Background(), wf)
	if err != nil {
		t.Fatal(err)
	}
	D := cawosched.ASAPMakespan(inst)
	prof, err := cawosched.ProfileForInstance(inst, cawosched.S3, 2*D, 24, 5)
	if err != nil {
		t.Fatal(err)
	}

	legacy, err := solver.Solve(context.Background(), cawosched.Request{Workflow: wf, Profile: prof})
	if err != nil {
		t.Fatal(err)
	}
	if legacy.CacheHit {
		t.Fatal("first solve was a cache hit")
	}
	wrapped, err := solver.Solve(context.Background(), cawosched.Request{
		Workflow: wf,
		Zones:    cawosched.SingleZone(prof),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !wrapped.CacheHit {
		t.Error("SingleZone-wrapped request missed the cache entry of the bare-profile request")
	}
	for v := range legacy.Schedule.Start {
		if legacy.Schedule.Start[v] != wrapped.Schedule.Start[v] {
			t.Fatalf("node %d: schedules differ between legacy and wrapped requests", v)
		}
	}
	if legacy.Cost != wrapped.Cost {
		t.Errorf("costs differ: %d vs %d", legacy.Cost, wrapped.Cost)
	}
}

// TestSolverRejectsMismatchedZones: explicit zones must match the
// cluster's zone count.
func TestSolverRejectsMismatchedZones(t *testing.T) {
	wf, err := cawosched.GenerateWorkflow(cawosched.Atacseq, 30, 2)
	if err != nil {
		t.Fatal(err)
	}
	solver := cawosched.NewSolver(cawosched.SmallZonedCluster(2, 3))
	prof := cawosched.ConstantProfile(10_000, 1_000)
	zs, err := cawosched.NewZoneSet(
		cawosched.Zone{Name: "a", Profile: prof},
		cawosched.Zone{Name: "b", Profile: prof.Clone()},
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := solver.Solve(context.Background(), cawosched.Request{Workflow: wf, Zones: zs}); err == nil {
		t.Error("2-zone supply accepted on a 3-zone cluster")
	}
	if _, err := solver.Solve(context.Background(), cawosched.Request{
		Workflow:      wf,
		ZoneScenarios: []cawosched.Scenario{cawosched.S1},
	}); err == nil {
		t.Error("1 zone scenario accepted on a 3-zone cluster")
	}
	// An explicit Profile is a one-zone supply and gets the same check.
	gap := cawosched.ConstantProfile(10_000, 1_000)
	gap.Intervals = []cawosched.Interval{{Start: 0, End: 10, Budget: 5}, {Start: 20, End: 10_000, Budget: 5}}
	for name, bad := range map[string]*cawosched.Profile{"empty": {}, "gap": gap} {
		_, err := solver.Solve(context.Background(), cawosched.Request{Workflow: wf, Profile: bad})
		if !errors.Is(err, cawosched.ErrInvalidRequest) || cawosched.ErrorCode(err) != "invalid_request" {
			t.Errorf("%s profile: err = %v (code %q), want ErrInvalidRequest", name, err, cawosched.ErrorCode(err))
		}
	}
}

// TestZonesForInstancePerZoneCorridor: generated per-zone profiles stay
// inside their zone's own corridor, and a 1-zone cluster reproduces the
// legacy ProfileForInstance generation bit for bit.
func TestZonesForInstancePerZoneCorridor(t *testing.T) {
	wf, err := cawosched.GenerateWorkflow(cawosched.Methylseq, 60, 4)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := cawosched.PlanHEFT(wf, cawosched.SmallZonedCluster(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	D := cawosched.ASAPMakespan(inst)
	zs, err := cawosched.ZonesForInstance(inst, []cawosched.Scenario{cawosched.S1, cawosched.S2}, 2*D, 24, 4)
	if err != nil {
		t.Fatal(err)
	}
	for z := 0; z < zs.NumZones(); z++ {
		lo := inst.ZoneIdlePower(z)
		for _, iv := range zs.Profile(z).Intervals {
			if iv.Budget < lo {
				t.Errorf("zone %d budget %d below the zone idle floor %d", z, iv.Budget, lo)
			}
		}
	}

	single, err := cawosched.PlanHEFT(wf, cawosched.SmallCluster(4))
	if err != nil {
		t.Fatal(err)
	}
	solver := cawosched.NewSolver(cawosched.SmallCluster(4))
	req := cawosched.Request{Workflow: wf, Scenario: cawosched.S2, Seed: 11}
	generated, err := solver.ZonesFor(context.Background(), single, req)
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := solver.ProfileFor(context.Background(), single, req)
	if err != nil {
		t.Fatal(err)
	}
	if !generated.Single() || !generated.Profile(0).EqualProfile(legacy) {
		t.Error("1-zone generation differs from the legacy profile generation")
	}
	if generated.Digest() != legacy.Digest() {
		t.Error("1-zone generation digest differs from the legacy profile digest")
	}
}
