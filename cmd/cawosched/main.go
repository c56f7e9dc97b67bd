// Command cawosched schedules a single workflow instance with the
// CaWoSched heuristics and reports the carbon cost of every variant
// against the ASAP baseline.
//
// Usage:
//
//	cawosched [flags]
//
// The workflow is either synthesized (-family, -n) or loaded from a
// GraphViz .dot file (-dot). The mapping and ordering always come from the
// built-in HEFT implementation, as in the paper; the HEFT plan is computed
// once per workflow and shared by all requested variants through the
// Solver's plan cache. Variant names come from the registry (see
// -list-variants); Ctrl-C cancels the in-flight solve.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	cawosched "repro"
	"repro/internal/power"
	"repro/internal/solve"
	"repro/internal/wfgen"
)

func main() {
	var (
		family   = flag.String("family", "methylseq", "workflow family: atacseq | bacass | eager | methylseq")
		n        = flag.Int("n", 200, "number of workflow tasks (ignored with -dot)")
		dotFile  = flag.String("dot", "", "load the workflow from this GraphViz .dot file")
		cluster  = flag.String("cluster", "small", "target cluster: small (72 nodes) | large (144 nodes)")
		zones    = flag.Int("zones", 1, "split the cluster round-robin into this many grid zones (each with its own power profile)")
		scenario = flag.String("scenario", "S1", "power scenario: S1 | S2 | S3 | S4")
		zoneScen = flag.String("zone-scenarios", "", "comma-separated per-zone scenarios, e.g. S1,S2 (overrides -scenario; one entry per zone)")
		intens   = flag.String("intensity", "", "comma-separated per-zone carbon-intensity CSV files (offset,intensity; one file = cluster-wide, else one per zone)")
		factor   = flag.Float64("deadline-factor", 2, "deadline = factor x ASAP makespan (>= 1)")
		mapping  = flag.String("mapping", "heft", `first-pass mapping: heft | lowpower | energy | zonegreen | zoneenergy | map-search (two-pass search keeping the lowest-carbon feasible plan)`)
		variant  = flag.String("variant", "all", `heuristic to run: "all", "asap", or a registry name like pressWR-LS (see -list-variants)`)
		seed     = flag.Uint64("seed", 42, "random seed for workflow/profile generation")
		verbose  = flag.Bool("v", false, "print the schedule's start times")
		gantt    = flag.Bool("gantt", false, "render an ASCII Gantt chart of the last variant's schedule")
		jsonOut  = flag.String("json", "", "write the last variant's schedule to this JSON file")
		csvOut   = flag.String("csv", "", "write the last variant's schedule to this CSV file")
		listVar  = flag.Bool("list-variants", false, "print the variant registry (canonical name per line) and exit")
	)
	flag.Parse()
	if *listVar {
		for _, name := range cawosched.VariantNames() {
			fmt.Println(name)
		}
		return
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, *family, *n, *dotFile, *cluster, *zones, *scenario, *zoneScen, *intens, *factor, *mapping, *variant, *seed, *verbose, *gantt, *jsonOut, *csvOut); err != nil {
		if errors.Is(err, cawosched.ErrCanceled) {
			fmt.Fprintln(os.Stderr, "cawosched: interrupted")
			os.Exit(130)
		}
		// Classified scheduler failures carry their stable machine-readable
		// code (the same codes the schedd HTTP API returns).
		if code := cawosched.ErrorCode(err); code != "" {
			fmt.Fprintf(os.Stderr, "cawosched: [%s] %v\n", code, err)
		} else {
			fmt.Fprintln(os.Stderr, "cawosched:", err)
		}
		os.Exit(1)
	}
}

func run(ctx context.Context, family string, n int, dotFile, clusterName string, zones int, scenarioName, zoneScen, intens string, factor float64, mapping, variant string, seed uint64, verbose, gantt bool, jsonOut, csvOut string) error {
	wf, err := loadWorkflow(family, n, dotFile, seed)
	if err != nil {
		return err
	}
	if zones < 1 {
		zones = 1
	}
	var cluster *cawosched.Cluster
	switch clusterName {
	case "small":
		cluster = cawosched.SmallZonedCluster(seed, zones)
	case "large":
		cluster = cawosched.LargeZonedCluster(seed, zones)
	default:
		return fmt.Errorf("unknown cluster %q", clusterName)
	}
	sc, err := parseScenario(scenarioName)
	if err != nil {
		return err
	}
	if factor < 1 {
		return fmt.Errorf("deadline factor %v < 1: %w", factor, cawosched.ErrInfeasibleDeadline)
	}

	names, err := selectVariants(variant)
	if err != nil {
		return err
	}
	mapPol, mapSearch, err := solve.ParseMapping(mapping)
	if err != nil {
		return err
	}

	solver := cawosched.NewSolver(cluster)
	req := cawosched.Request{
		Workflow:       wf,
		Scenario:       sc,
		DeadlineFactor: factor,
		MappingPolicy:  mapPol,
		MapSearch:      mapSearch,
		Seed:           seed,
	}
	if zoneScen != "" && intens != "" {
		return fmt.Errorf("-zone-scenarios and -intensity are mutually exclusive (the intensity traces define the per-zone supply)")
	}
	if zoneScen != "" {
		for _, name := range strings.Split(zoneScen, ",") {
			zsc, err := parseScenario(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			req.ZoneScenarios = append(req.ZoneScenarios, zsc)
		}
	}

	// Plan once (the solver caches it for every variant below) and derive
	// the shared per-zone supply so all variants compete on the same
	// horizon.
	inst, _, err := solver.Plan(ctx, wf)
	if err != nil {
		return err
	}
	D := cawosched.ASAPMakespan(inst)
	var zoneSet *cawosched.ZoneSet
	if intens != "" {
		var T int64
		if T, err = cawosched.DeadlineHorizon(D, factor); err == nil {
			zoneSet, err = loadIntensityZones(inst, intens, T)
		}
	} else {
		zoneSet, err = solver.ZonesFor(ctx, inst, req)
	}
	if err != nil {
		return err
	}
	req.Zones = zoneSet

	fmt.Printf("workflow: %d tasks, %d nodes incl. communications\n", wf.N(), inst.N())
	fmt.Printf("cluster:  %s (%d compute processors, %d zones)\n", clusterName, cluster.NumCompute(), cluster.NumZones())
	if mapSearch || mapPol != cawosched.MapEFT {
		fmt.Printf("mapping:  %s\n", mapping)
	}
	fmt.Printf("horizon:  D = %d, deadline T = %d\n", D, zoneSet.T())
	for _, z := range zoneSet.Zones {
		fmt.Printf("zone %-8s %d intervals, total green %d\n", z.Name+":", z.Profile.J(), z.Profile.TotalGreen())
	}
	fmt.Println()

	asap := cawosched.ASAP(inst)
	asapCost := cawosched.CarbonCostZones(inst, asap, zoneSet)
	fmt.Printf("%-12s  %12s  %8s  %10s\n", "variant", "carbon cost", "vs ASAP", "time")
	fmt.Printf("%-12s  %12d  %8s  %10s\n", "ASAP", asapCost, "1.000", "-")

	var last *cawosched.Schedule
	for _, name := range names {
		req.Variant = name
		start := time.Now()
		res, err := solver.Solve(ctx, req)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		elapsed := time.Since(start)
		ratio := "0.000"
		if res.ASAPCost > 0 {
			ratio = fmt.Sprintf("%.3f", float64(res.Cost)/float64(res.ASAPCost))
		} else if res.Cost == 0 {
			ratio = "1.000"
		}
		row := fmt.Sprintf("%-12s  %12d  %8s  %10s", res.Variant, res.Cost, ratio, elapsed.Round(time.Millisecond))
		if mapSearch {
			row += "  mapping " + res.Mapping // the search's winning policy
		}
		fmt.Println(row)
		if verbose {
			printSchedule(inst, res.Schedule)
		}
		last = res.Schedule
	}
	if last == nil {
		last = asap
	}
	if gantt {
		var overlay *cawosched.Profile
		if zoneSet.Single() {
			overlay = zoneSet.Profile(0)
		}
		fmt.Println()
		fmt.Print(cawosched.Gantt(inst, last, zoneSet.T(), cawosched.GanttOptions{Width: 100, MaxProcs: 12, Profile: overlay}))
	}
	if jsonOut != "" {
		f, err := os.Create(jsonOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := cawosched.WriteScheduleJSON(f, inst, last); err != nil {
			return err
		}
	}
	if csvOut != "" {
		f, err := os.Create(csvOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := cawosched.WriteScheduleCSV(f, inst, last); err != nil {
			return err
		}
	}
	return nil
}

// loadIntensityZones reads the comma-separated per-zone intensity CSVs
// and converts them into the per-zone supply over horizon T. A single
// file serves the whole cluster only when the cluster has one zone;
// otherwise one file per zone is required.
func loadIntensityZones(inst *cawosched.Instance, files string, T int64) (*cawosched.ZoneSet, error) {
	var traces [][]cawosched.TracePoint
	for _, name := range strings.Split(files, ",") {
		name = strings.TrimSpace(name)
		f, err := os.Open(name)
		if err != nil {
			return nil, err
		}
		pts, err := cawosched.ReadIntensityCSV(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		traces = append(traces, pts)
	}
	return cawosched.ZonesFromIntensity(inst, traces, T)
}

func loadWorkflow(family string, n int, dotFile string, seed uint64) (*cawosched.DAG, error) {
	if dotFile != "" {
		f, err := os.Open(dotFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return cawosched.ReadWorkflowDOT(f)
	}
	fam, err := parseFamily(family)
	if err != nil {
		return nil, err
	}
	return cawosched.GenerateWorkflow(fam, n, seed)
}

func parseFamily(name string) (cawosched.Family, error) {
	for _, f := range wfgen.Families() {
		if f.String() == name {
			return f, nil
		}
	}
	return 0, fmt.Errorf("unknown family %q (want atacseq, bacass, eager or methylseq)", name)
}

func parseScenario(name string) (cawosched.Scenario, error) {
	// The shared parser also backs the schedd wire format, so CLI and
	// service accept exactly the same spellings.
	return power.ParseScenario(name)
}

// selectVariants resolves -variant into registry names: "all" is every
// registered variant, "asap" is the baseline only (empty list), anything
// else must resolve through the registry.
func selectVariants(name string) ([]string, error) {
	switch name {
	case "asap":
		return nil, nil
	case "all":
		return cawosched.VariantNames(), nil
	}
	opt, err := cawosched.LookupVariant(name)
	if err != nil {
		return nil, fmt.Errorf("%w (want all, asap, or one of %s)",
			err, strings.Join(cawosched.VariantNames(), ", "))
	}
	return []string{opt.Name()}, nil
}

func printSchedule(inst *cawosched.Instance, s *cawosched.Schedule) {
	for v := 0; v < inst.N(); v++ {
		kind := "task"
		if inst.IsComm(v) {
			kind = "comm"
		}
		fmt.Printf("    %s %-24s proc %-4d start %-8d end %d\n",
			kind, inst.G.Tasks[v].Name, inst.Proc[v], s.Start[v], s.Start[v]+inst.Dur[v])
	}
}
