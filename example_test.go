package cawosched_test

import (
	"context"
	"fmt"
	"log"
	"strings"

	cawosched "repro"
)

// ExampleSolver_Solve shows the request/response entry point: one solver
// per cluster, one Request per solve. The two-task chain only fits its
// work into the green second half of the horizon, so the carbon-aware
// schedule is free while ASAP burns brown power.
func ExampleSolver_Solve() {
	wf := cawosched.NewWorkflow(2)
	wf.SetWeight(0, 4)
	wf.SetWeight(1, 4)
	wf.AddEdge(0, 1, 1)

	cluster := cawosched.NewCluster([]cawosched.ProcType{
		{Name: "node", Speed: 1, Idle: 0, Work: 10},
	}, []int{1}, 1)
	prof := cawosched.ConstantProfile(20, 0)
	prof.Intervals = []cawosched.Interval{
		{Start: 0, End: 10, Budget: 0},
		{Start: 10, End: 20, Budget: 10},
	}

	zones := cawosched.SingleZone(prof) // the one-zone cluster's supply

	solver := cawosched.NewSolver(cluster)
	res, err := solver.Solve(context.Background(), cawosched.Request{
		Workflow: wf,
		Variant:  "slack",
		Zones:    zones, // explicit supply; its horizon is the deadline
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("variant:", res.Variant)
	fmt.Println("ASAP cost:", res.ASAPCost)
	fmt.Println("CaWoSched cost:", res.Cost)
	fmt.Println("first task starts at:", res.Schedule.Start[0])

	// A second solve for the same workflow reuses the cached HEFT plan.
	if _, err := solver.Solve(context.Background(), cawosched.Request{
		Workflow: wf, Variant: "pressWR-LS", Zones: zones,
	}); err != nil {
		log.Fatal(err)
	}
	st := solver.Stats()
	fmt.Printf("plan cache: %d hit, %d miss\n", st.PlanHits, st.PlanMisses)
	// Output:
	// variant: slack
	// ASAP cost: 80
	// CaWoSched cost: 0
	// first task starts at: 10
	// plan cache: 1 hit, 1 miss
}

// Example demonstrates the core pipeline: build a workflow by hand, map
// it with HEFT, and schedule it carbon-aware against a two-phase profile
// (no green power in the first half, plenty in the second).
func Example() {
	wf := cawosched.NewWorkflow(2)
	wf.SetWeight(0, 4)
	wf.SetWeight(1, 4)
	wf.AddEdge(0, 1, 1)

	cluster := cawosched.NewCluster([]cawosched.ProcType{
		{Name: "node", Speed: 1, Idle: 0, Work: 10},
	}, []int{1}, 1)
	inst, err := cawosched.PlanHEFT(wf, cluster)
	if err != nil {
		log.Fatal(err)
	}

	prof := cawosched.ConstantProfile(20, 0)
	prof.Intervals = []cawosched.Interval{
		{Start: 0, End: 10, Budget: 0},
		{Start: 10, End: 20, Budget: 10},
	}

	zones := cawosched.SingleZone(prof)
	asapCost := cawosched.CarbonCostZones(inst, cawosched.ASAP(inst), zones)
	sched, stats, err := cawosched.RunZonesContext(context.Background(), inst, zones, cawosched.Options{
		Score: cawosched.ScoreSlack,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("ASAP cost:", asapCost)
	fmt.Println("CaWoSched cost:", stats.Cost)
	fmt.Println("first task starts at:", sched.Start[0])
	// Output:
	// ASAP cost: 80
	// CaWoSched cost: 0
	// first task starts at: 10
}

// ExampleOptimalUniprocessor shows the exact single-machine solver
// (Theorem 4.1): one job, green power only in the second half.
func ExampleOptimalUniprocessor() {
	prof := cawosched.ConstantProfile(10, 0)
	prof.Intervals = []cawosched.Interval{
		{Start: 0, End: 5, Budget: 0},
		{Start: 5, End: 10, Budget: 9},
	}
	starts, cost, err := cawosched.OptimalUniprocessor([]int64{3}, 1, 8, prof)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("start:", starts[0], "cost:", cost)
	// Output:
	// start: 5 cost: 5
}

// ExampleGantt renders a one-task schedule as ASCII art.
func ExampleGantt() {
	wf := cawosched.NewWorkflow(1)
	wf.SetWeight(0, 5)
	cluster := cawosched.NewCluster([]cawosched.ProcType{
		{Name: "n", Speed: 1, Idle: 1, Work: 1},
	}, []int{1}, 1)
	inst, err := cawosched.PlanHEFT(wf, cluster)
	if err != nil {
		log.Fatal(err)
	}
	s := cawosched.ASAP(inst)
	out := cawosched.Gantt(inst, s, 10, cawosched.GanttOptions{Width: 10})
	fmt.Println(strings.Contains(out, "#####"))
	// Output:
	// true
}

// ExampleReadIntensityCSV converts a grid carbon-intensity trace into a
// scheduling profile.
func ExampleReadIntensityCSV() {
	csv := "offset,intensity\n0,400\n5,100\n"
	pts, err := cawosched.ReadIntensityCSV(strings.NewReader(csv))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(len(pts), "samples, first intensity", pts[0].Intensity)
	// Output:
	// 2 samples, first intensity 400
}

// ExampleZonesFromIntensity turns a parsed intensity trace into the green
// power supply of a one-zone platform, scaled to its corridor: the
// cleanest sample gets the most green budget.
func ExampleZonesFromIntensity() {
	wf := cawosched.NewWorkflow(1)
	wf.SetWeight(0, 4)
	cluster := cawosched.NewCluster([]cawosched.ProcType{
		{Name: "node", Speed: 1, Idle: 1, Work: 10},
	}, []int{1}, 1)
	inst, err := cawosched.PlanHEFT(wf, cluster)
	if err != nil {
		log.Fatal(err)
	}
	pts, err := cawosched.ReadIntensityCSV(strings.NewReader("offset,intensity\n0,400\n5,100\n"))
	if err != nil {
		log.Fatal(err)
	}
	zones, err := cawosched.ZonesFromIntensity(inst, [][]cawosched.TracePoint{pts}, 10)
	if err != nil {
		log.Fatal(err)
	}
	for _, iv := range zones.Profile(0).Intervals {
		fmt.Printf("[%d,%d) budget %d\n", iv.Start, iv.End, iv.Budget)
	}
	// Output:
	// [0,5) budget 1
	// [5,10) budget 9
}
