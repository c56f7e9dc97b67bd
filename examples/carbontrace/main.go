// Carbontrace: schedule against a measured grid signal instead of a
// synthetic scenario. A 24-hour carbon-intensity trace (a typical
// solar-heavy grid day: dirty overnight, clean around noon) is imported as
// CSV, converted into a green-power supply, and an eager workflow is
// scheduled against it through the Solver's explicit-supply request path.
// The ASCII Gantt shows the work huddling into the clean midday hours.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	cawosched "repro"
)

// A day of hourly carbon intensity (gCO₂/kWh). One scheduler time unit =
// 1/10 hour here, so hour h starts at offset 10·h.
const intensityCSV = `offset,intensity
0,520
10,510
20,500
30,490
40,470
50,430
60,360
70,280
80,210
90,160
100,130
110,115
120,110
130,118
140,140
150,180
160,240
170,330
180,420
190,480
200,510
210,525
220,530
230,525
`

func main() {
	ctx := context.Background()
	wf, err := cawosched.GenerateWorkflow(cawosched.Eager, 300, 3)
	if err != nil {
		log.Fatal(err)
	}
	solver := cawosched.NewSolver(cawosched.SmallCluster(3))

	// The intensity → green-power conversion needs the platform's power
	// corridor, so plan first (the Solve below reuses the cached plan via
	// Request.Instance).
	inst, _, err := solver.Plan(ctx, wf)
	if err != nil {
		log.Fatal(err)
	}
	trace, err := cawosched.ReadIntensityCSV(strings.NewReader(intensityCSV))
	if err != nil {
		log.Fatal(err)
	}
	const T = 240 // the full trace day
	D := cawosched.ASAPMakespan(inst)
	if D > T {
		log.Fatalf("workflow needs %d units, day has %d", D, T)
	}
	// The small cluster is one grid zone, so it takes one trace.
	zones, err := cawosched.ZonesFromIntensity(inst, [][]cawosched.TracePoint{trace}, T)
	if err != nil {
		log.Fatal(err)
	}

	res, err := solver.Solve(ctx, cawosched.Request{
		Instance: inst,
		Zones:    zones, // explicit supply: its horizon is the deadline
		Variant:  "pressWR-LS",
	})
	if err != nil {
		log.Fatal(err)
	}

	asap, prof := cawosched.ASAP(inst), zones.Profile(0)
	fmt.Printf("eager workflow: %d tasks, ASAP makespan %d of %d-unit day\n", wf.N(), D, T)
	fmt.Printf("ASAP carbon cost       : %d\n", res.ASAPCost)
	fmt.Printf("%s carbon cost : %d (%.1f%% of ASAP)\n\n",
		res.Variant, res.Cost, 100*float64(res.Cost)/float64(res.ASAPCost))

	fmt.Println("ASAP (busiest 6 processors):")
	fmt.Print(cawosched.Gantt(inst, asap, T, cawosched.GanttOptions{Width: 96, MaxProcs: 6, Profile: prof}))
	fmt.Println("\ncarbon-aware (same processors):")
	fmt.Print(cawosched.Gantt(inst, res.Schedule, T, cawosched.GanttOptions{Width: 96, MaxProcs: 6, Profile: prof}))
}
