package cawosched_test

import (
	"context"
	"testing"

	cawosched "repro"
)

// buildPipeline exercises the whole public path: generate → map → supply.
func buildPipeline(t testing.TB, fam cawosched.Family, n int, seed uint64, factor int64) (*cawosched.Instance, *cawosched.ZoneSet) {
	t.Helper()
	wf, err := cawosched.GenerateWorkflow(fam, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	cluster := cawosched.SmallCluster(seed)
	inst, err := cawosched.PlanHEFT(wf, cluster)
	if err != nil {
		t.Fatal(err)
	}
	D := cawosched.ASAPMakespan(inst)
	zs, err := cawosched.ZonesForInstance(inst, []cawosched.Scenario{cawosched.S1}, factor*D, 24, seed)
	if err != nil {
		t.Fatal(err)
	}
	return inst, zs
}

// TestQuickstartPath follows the package-doc quickstart: one Solver, one
// Request, everything else defaulted or generated.
func TestQuickstartPath(t *testing.T) {
	wf, err := cawosched.GenerateWorkflow(cawosched.Methylseq, 120, 42)
	if err != nil {
		t.Fatal(err)
	}
	solver := cawosched.NewSolver(cawosched.SmallCluster(42))
	resp, err := solver.Solve(context.Background(), cawosched.Request{
		Workflow:       wf,
		Variant:        "pressWR-LS",
		Scenario:       cawosched.S1,
		DeadlineFactor: 2,
		Seed:           42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cawosched.Validate(resp.Instance, resp.Schedule, resp.Deadline); err != nil {
		t.Fatal(err)
	}
	if got := cawosched.CarbonCostZones(resp.Instance, resp.Schedule, resp.Zones); got != resp.Cost {
		t.Errorf("CarbonCostZones %d != Response.Cost %d", got, resp.Cost)
	}
	if resp.Cost > resp.ASAPCost {
		t.Errorf("pressWR-LS cost %d worse than ASAP %d", resp.Cost, resp.ASAPCost)
	}
}

func TestAllVariantNamesExposed(t *testing.T) {
	if len(cawosched.AllVariants()) != 16 {
		t.Errorf("AllVariants = %d, want 16", len(cawosched.AllVariants()))
	}
	if cawosched.Variants(true)[7].Name() != "pressWR-LS" {
		t.Errorf("unexpected variant name %q", cawosched.Variants(true)[7].Name())
	}
}

func TestManualWorkflowAndMapping(t *testing.T) {
	wf := cawosched.NewWorkflow(3)
	wf.SetWeight(0, 8)
	wf.SetWeight(1, 8)
	wf.SetWeight(2, 8)
	wf.AddEdge(0, 1, 2)
	wf.AddEdge(0, 2, 2)
	cluster := cawosched.NewCluster([]cawosched.ProcType{
		{Name: "A", Speed: 2, Idle: 1, Work: 4},
		{Name: "B", Speed: 4, Idle: 2, Work: 8},
	}, []int{1, 1}, 7)
	inst, err := cawosched.BuildInstance(wf, &cawosched.Mapping{
		Proc:   []int{0, 0, 1},
		Order:  [][]int{{0, 1}, {2}},
		Finish: []int64{4, 8, 10},
	}, cluster)
	if err != nil {
		t.Fatal(err)
	}
	if inst.NumReal != 3 || inst.N() != 4 { // one comm task for edge 0→2
		t.Fatalf("instance N=%d NumReal=%d", inst.N(), inst.NumReal)
	}
	zs := cawosched.SingleZone(cawosched.ConstantProfile(60, 3))
	sched, _, err := cawosched.RunZonesContext(context.Background(), inst, zs, cawosched.Options{Score: cawosched.ScoreSlack})
	if err != nil {
		t.Fatal(err)
	}
	if err := cawosched.Validate(inst, sched, 60); err != nil {
		t.Error(err)
	}
}

func TestOptimalUniprocessorExposed(t *testing.T) {
	prof := cawosched.ConstantProfile(20, 0)
	starts, cost, err := cawosched.OptimalUniprocessor([]int64{3, 4}, 1, 2, prof)
	if err != nil {
		t.Fatal(err)
	}
	if len(starts) != 2 {
		t.Fatalf("starts = %v", starts)
	}
	// Budget 0: everything is brown. Idle 1×20 plus work 2×7 = 34.
	if cost != 34 {
		t.Errorf("cost = %d, want 34", cost)
	}
}

func TestOptimalScheduleExposed(t *testing.T) {
	inst, zs := buildPipeline(t, cawosched.Bacass, 7, 3, 2)
	opt, optCost, err := cawosched.OptimalScheduleContext(context.Background(), inst, zs, 5_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := cawosched.Validate(inst, opt, zs.T()); err != nil {
		t.Fatal(err)
	}
	for _, o := range cawosched.AllVariants() {
		s, _, err := cawosched.RunZonesContext(context.Background(), inst, zs, o)
		if err != nil {
			t.Fatal(err)
		}
		if c := cawosched.CarbonCostZones(inst, s, zs); c < optCost {
			t.Errorf("%s cost %d beats optimum %d", o.Name(), c, optCost)
		}
	}
}
