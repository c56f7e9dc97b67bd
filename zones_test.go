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
	// A one-zone supply gets the same check, and its profile is validated.
	gap := cawosched.ConstantProfile(10_000, 1_000)
	gap.Intervals = []cawosched.Interval{{Start: 0, End: 10, Budget: 5}, {Start: 20, End: 10_000, Budget: 5}}
	for name, bad := range map[string]*cawosched.Profile{"empty": {}, "gap": gap} {
		_, err := solver.Solve(context.Background(), cawosched.Request{Workflow: wf, Zones: cawosched.SingleZone(bad)})
		if !errors.Is(err, cawosched.ErrInvalidRequest) || cawosched.ErrorCode(err) != "invalid_request" {
			t.Errorf("%s profile: err = %v (code %q), want ErrInvalidRequest", name, err, cawosched.ErrorCode(err))
		}
	}
}

// TestZonesForInstancePerZoneCorridor: generated per-zone profiles stay
// inside their zone's own corridor.
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
}

// TestZonesForInstanceOneZoneMatchesSolver pins the one-zone rule: on a
// one-zone cluster the public generator and the supply a Solve runs
// against are the same set, profile and digest, and that set digests like
// its bare profile (so it shares the cache keys of the paper's
// single-profile setting).
func TestZonesForInstanceOneZoneMatchesSolver(t *testing.T) {
	wf, err := cawosched.GenerateWorkflow(cawosched.Methylseq, 60, 4)
	if err != nil {
		t.Fatal(err)
	}
	solver := cawosched.NewSolver(cawosched.SmallCluster(4))
	inst, _, err := solver.Plan(context.Background(), wf)
	if err != nil {
		t.Fatal(err)
	}
	const seed, intervals = 11, 24
	req := cawosched.Request{Workflow: wf, Scenario: cawosched.S2, Seed: seed}
	served, err := solver.ZonesFor(context.Background(), inst, req)
	if err != nil {
		t.Fatal(err)
	}
	T, err := cawosched.DeadlineHorizon(cawosched.ASAPMakespan(inst), req.DeadlineFactor)
	if err != nil {
		t.Fatal(err)
	}
	generated, err := cawosched.ZonesForInstance(inst, []cawosched.Scenario{cawosched.S2}, T, intervals, seed)
	if err != nil {
		t.Fatal(err)
	}
	if !generated.Single() || !generated.EqualZoneSet(served) {
		t.Error("ZonesForInstance and Solver.ZonesFor give different one-zone supplies")
	}
	if generated.Digest() != served.Digest() {
		t.Errorf("digests differ: generator %#x, solver %#x", generated.Digest(), served.Digest())
	}
	if generated.Digest() != generated.Profile(0).Digest() {
		t.Error("one-zone supply does not digest like its bare profile")
	}
}
