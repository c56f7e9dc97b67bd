package cawosched_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	cawosched "repro"
)

// TestFacadeSurface exercises the public wrappers not covered by the
// scenario tests, end to end on one small instance.
func TestFacadeSurface(t *testing.T) {
	wf, err := cawosched.GenerateWorkflow(cawosched.Eager, 40, 2)
	if err != nil {
		t.Fatal(err)
	}

	// DOT round trip through the facade.
	var dot bytes.Buffer
	if err := cawosched.WriteWorkflowDOT(&dot, wf, "x"); err != nil {
		t.Fatal(err)
	}
	back, err := cawosched.ReadWorkflowDOT(&dot)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != wf.N() {
		t.Errorf("DOT round trip: %d tasks, want %d", back.N(), wf.N())
	}

	// Raw HEFT result and the large cluster.
	cluster := cawosched.LargeCluster(2)
	h, err := cawosched.HEFT(wf, cluster)
	if err != nil {
		t.Fatal(err)
	}
	if h.Makespan <= 0 {
		t.Error("HEFT makespan not positive")
	}

	inst, err := cawosched.PlanHEFT(wf, cluster)
	if err != nil {
		t.Fatal(err)
	}
	D := cawosched.ASAPMakespan(inst)
	zs, err := cawosched.ZonesForInstance(inst, []cawosched.Scenario{cawosched.S3}, 2*D, 12, 2)
	if err != nil {
		t.Fatal(err)
	}

	// ALAP, Makespan.
	alap, err := cawosched.ALAP(inst, zs.T())
	if err != nil {
		t.Fatal(err)
	}
	if cawosched.Makespan(inst, alap) != zs.T() {
		t.Error("ALAP should touch the deadline")
	}

	// Greedy + LS through the facade.
	ms, mstats, err := cawosched.RunZonesContext(context.Background(), inst, zs, cawosched.Options{
		Score: cawosched.ScoreSlackW, LocalSearch: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cawosched.Validate(inst, ms, zs.T()); err != nil {
		t.Error(err)
	}
	if mstats.Cost != cawosched.CarbonCostZones(inst, ms, zs) {
		t.Error("RunZonesContext stats cost mismatch")
	}

	// Annealing through the facade.
	before := cawosched.CarbonCostZones(inst, ms, zs)
	after, err := cawosched.AnnealContext(context.Background(), inst, zs, ms, cawosched.AnnealOptions{Seed: 1, Iterations: 500})
	if err != nil {
		t.Fatal(err)
	}
	if after > before {
		t.Errorf("Anneal worsened %d → %d", before, after)
	}

	// Schedule export round trip.
	entries := cawosched.ExportSchedule(inst, ms)
	if len(entries) != inst.N() {
		t.Errorf("ExportSchedule: %d entries", len(entries))
	}
	var js bytes.Buffer
	if err := cawosched.WriteScheduleJSON(&js, inst, ms); err != nil {
		t.Fatal(err)
	}
	got, err := cawosched.ReadScheduleJSON(&js, inst)
	if err != nil {
		t.Fatal(err)
	}
	for v := range got.Start {
		if got.Start[v] != ms.Start[v] {
			t.Fatal("JSON round trip changed the schedule")
		}
	}
	var csv bytes.Buffer
	if err := cawosched.WriteScheduleCSV(&csv, inst, ms); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csv.String(), "node,name,kind,proc,start,end") {
		t.Error("CSV header missing")
	}
}

func TestFacadeGreenMapping(t *testing.T) {
	wf, err := cawosched.GenerateWorkflow(cawosched.Bacass, 57, 4)
	if err != nil {
		t.Fatal(err)
	}
	cluster := cawosched.SmallCluster(4)
	for _, pol := range []cawosched.MappingPolicy{cawosched.MapEFT, cawosched.MapLowPower, cawosched.MapEnergyPerWork} {
		inst, err := cawosched.PlanGreenZones(wf, cluster, pol, nil)
		if err != nil {
			t.Fatalf("policy %v: %v", pol, err)
		}
		zs, err := cawosched.ZonesForInstance(inst, []cawosched.Scenario{cawosched.S1}, 2*cawosched.ASAPMakespan(inst), 12, 4)
		if err != nil {
			t.Fatal(err)
		}
		s, _, err := cawosched.RunZonesContext(context.Background(), inst, zs, cawosched.Options{Score: cawosched.ScorePressure})
		if err != nil {
			t.Fatal(err)
		}
		if err := cawosched.Validate(inst, s, zs.T()); err != nil {
			t.Errorf("policy %v: %v", pol, err)
		}
	}
	// MapEFT must agree with PlanHEFT.
	a, err := cawosched.PlanGreenZones(wf, cawosched.SmallCluster(4), cawosched.MapEFT, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cawosched.PlanHEFT(wf, cawosched.SmallCluster(4))
	if err != nil {
		t.Fatal(err)
	}
	if a.N() != b.N() {
		t.Error("MapEFT and PlanHEFT disagree on instance size")
	}
	for v := 0; v < a.N(); v++ {
		if a.Proc[v] != b.Proc[v] {
			t.Fatalf("MapEFT and PlanHEFT disagree at node %d", v)
		}
	}
}

func TestFacadeIntensityProfile(t *testing.T) {
	wf, _ := cawosched.GenerateWorkflow(cawosched.Methylseq, 30, 5)
	inst, err := cawosched.PlanHEFT(wf, cawosched.SmallCluster(5))
	if err != nil {
		t.Fatal(err)
	}
	pts, err := cawosched.ReadIntensityCSV(strings.NewReader("0,300\n50,100\n"))
	if err != nil {
		t.Fatal(err)
	}
	zs, err := cawosched.ZonesFromIntensity(inst, [][]cawosched.TracePoint{pts}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !zs.Single() {
		t.Fatalf("%d zones from one trace on a one-zone cluster", zs.NumZones())
	}
	prof := zs.Profile(0)
	if prof.T() != 100 || prof.J() != 2 {
		t.Errorf("profile T=%d J=%d", prof.T(), prof.J())
	}
	// Cleaner half must have the larger budget.
	if prof.BudgetAt(60) <= prof.BudgetAt(10) {
		t.Error("cleaner grid should yield more green budget")
	}
}

func TestFacadeOptionLists(t *testing.T) {
	if len(cawosched.Variants(false)) != 8 {
		t.Error("Variants(false) != 8")
	}
	if _, err := cawosched.GenerateWorkflow(cawosched.Atacseq, 2, 1); err == nil {
		t.Error("n=2 accepted")
	}
}
