// Command experiments regenerates the paper's evaluation artifacts: every
// table and figure of Section 6 (and Appendix A.5), printed as aligned
// text tables and optionally written as CSV files for plotting.
//
// By default it runs a reduced corpus (workflows capped at -max-tasks) so
// all artifacts regenerate in minutes; -max-tasks 0 runs the paper-scale
// corpus (34 workflows up to 30,000 tasks — hours of compute). Its
// (instance, algorithm) jobs run on the same sweep engine as -parallel,
// with the JSONL stream discarded, and the first failed job aborts it.
//
// With -parallel N the command switches to sweep mode: the full grid
// (family × size × cluster × scenario S1–S4 × 17 algorithms × -seeds
// replicates) runs as independent jobs on an N-worker pool, streaming one
// JSONL record per job to -out in deterministic grid order. A job that
// panics or exceeds -job-timeout is recorded in-band and the sweep
// continues; -resume skips every job already completed in -out and
// appends only the missing ones. A summary aggregation (median cost ratio
// vs ASAP, running times) is printed when the sweep finishes.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	cawosched "repro"
	"repro/internal/experiments"
)

func main() {
	var (
		maxTasks = flag.Int("max-tasks", 500, "largest workflow size to include (0 = full paper corpus)")
		seed     = flag.Uint64("seed", 42, "corpus seed")
		workers  = flag.Int("workers", 0, "parallel instances (0 = GOMAXPROCS)")
		outDir   = flag.String("out", "", "artifact mode: CSV directory; sweep mode: JSONL results path (default results.jsonl)")
		only     = flag.String("only", "all", "comma-separated artifacts: table1,fig1,...,fig8,table2,fig12,...,fig17,fig7,ablations,robustness,mapping,arrival or all (ablations/robustness/mapping/arrival only run when named explicitly)")
		quiet    = flag.Bool("q", false, "suppress progress output")
		parallel = flag.Int("parallel", 0, "sweep mode: run the full grid on N workers, streaming JSONL (0 = artifact mode)")
		resume   = flag.Bool("resume", false, "sweep mode: skip jobs already completed in the -out file and append the rest")
		seeds    = flag.Int("seeds", 1, "sweep mode: replicate seeds per grid cell")
		timeout  = flag.Duration("job-timeout", 0, "sweep mode: per-job wall-clock cap enforced by context cancellation, e.g. 30s (0 = none)")
		variants = flag.String("variants", "", `sweep mode: comma-separated registry variant names to run instead of the full roster (ASAP always included), e.g. "pressWR-LS,slackR"`)
		zones    = flag.Int("zones", 1, "multi-zone scenario family: clusters split round-robin into N grid zones with rotated per-zone scenarios (1 = the paper's single-zone grid; also used by -only mapping)")
		mappings = flag.String("mappings", "", `sweep mode: comma-separated mapping roster for the mapping-ablation family, e.g. "fixed,zonegreen,map-search" or "all" (empty = fixed mapping only; policy cells get /m<policy> job keys)`)
		listVar  = flag.Bool("list-variants", false, "print the variant registry (canonical name per line) and exit")
		arrRates = flag.String("arrival-rates", "0.5,1,2", "-only arrival: comma-separated load factors (expected arrivals per ASAP makespan; cells get /a<rate> job keys)")
		arrZones = flag.String("arrival-zones", "2,4", "-only arrival: comma-separated zone counts to sweep")
		arrivals = flag.Int("arrivals", 12, "-only arrival: Poisson trace length per cell")
	)
	flag.Parse()
	if *listVar {
		printVariants()
		return
	}
	// Ctrl-C / SIGTERM cancels the context: in-flight scheduling observes
	// it and returns, sweep mode leaves a resumable JSONL prefix behind.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var err error
	if *parallel > 0 {
		err = runSweep(ctx, *maxTasks, *seed, *parallel, *outDir, *resume, *seeds, *zones, *timeout, *variants, *mappings, *quiet)
	} else {
		err = run(ctx, *maxTasks, *seed, *workers, *outDir, *only, *zones, *quiet,
			arrivalOpts{rates: *arrRates, zones: *arrZones, arrivals: *arrivals})
	}
	if err != nil {
		if errors.Is(err, cawosched.ErrCanceled) {
			fmt.Fprintln(os.Stderr, "experiments: interrupted (partial results kept; sweep mode: rerun with -resume)")
			os.Exit(130)
		}
		// Classified scheduler failures carry their stable machine-readable
		// code (the same codes the schedd HTTP API returns).
		if code := cawosched.ErrorCode(err); code != "" {
			fmt.Fprintf(os.Stderr, "experiments: [%s] %v\n", code, err)
		} else {
			fmt.Fprintln(os.Stderr, "experiments:", err)
		}
		os.Exit(1)
	}
}

// printVariants prints the registry in canonical order: the source of
// truth for names accepted by -variants and stored in sweep JSONL records.
func printVariants() {
	for _, name := range cawosched.VariantNames() {
		fmt.Println(name)
	}
}

// selectRoster resolves the -variants flag against the registry; an empty
// flag keeps the full 17-algorithm roster (ASAP + 16 variants).
func selectRoster(variants string) ([]experiments.Algorithm, error) {
	all := experiments.Algorithms()
	if variants == "" {
		return all, nil
	}
	byName := make(map[string]experiments.Algorithm, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	roster := []experiments.Algorithm{byName[experiments.BaselineName]}
	seen := map[string]bool{}
	for _, raw := range strings.Split(variants, ",") {
		name := strings.TrimSpace(raw)
		if name == "" || strings.EqualFold(name, experiments.BaselineName) {
			continue
		}
		opt, err := cawosched.LookupVariant(name)
		if err != nil {
			return nil, fmt.Errorf("%w (see -list-variants)", err)
		}
		if seen[opt.Name()] {
			continue // duplicate names would emit duplicate job keys
		}
		seen[opt.Name()] = true
		roster = append(roster, byName[opt.Name()])
	}
	return roster, nil
}

// selectMappings resolves the -mappings flag into the Spec.Mapping roster
// of the mapping-ablation family ("" = fixed mapping only).
func selectMappings(mappings string) ([]string, error) {
	if mappings == "" {
		return nil, nil
	}
	if mappings == "all" {
		return experiments.Mappings(), nil
	}
	var out []string
	seen := map[string]bool{}
	for _, raw := range strings.Split(mappings, ",") {
		name := strings.TrimSpace(raw)
		if name != "fixed" && name != experiments.MapSearch {
			pol, err := cawosched.ParseMappingPolicy(name)
			if err != nil {
				return nil, err
			}
			name = pol.String()
		}
		if name == "fixed" || name == cawosched.MapEFT.String() {
			name = "" // the fixed HEFT mapping is the legacy cell (and key)
		}
		if seen[name] {
			continue // duplicates would emit duplicate job keys
		}
		seen[name] = true
		out = append(out, name)
	}
	return out, nil
}

// runSweep is the -parallel path: grid generation, worker-pool execution
// with JSONL streaming/resume, then a paper-style aggregation over every
// record on disk (including ones from earlier resumed runs).
func runSweep(ctx context.Context, maxTasks int, seed uint64, parallel int, outPath string, resume bool, seeds, zones int, timeout time.Duration, variants, mappings string, quiet bool) error {
	if outPath == "" {
		outPath = "results.jsonl"
	}
	roster, err := selectRoster(variants)
	if err != nil {
		return err
	}
	mapRoster, err := selectMappings(mappings)
	if err != nil {
		return err
	}
	names := experiments.AlgoNames(roster)
	jobs := experiments.MappingGrid(maxTasks, seed, seeds, zones, mapRoster, names)

	var skip map[string]bool
	needNewline := false
	if resume {
		data, err := os.ReadFile(outPath)
		switch {
		case os.IsNotExist(err):
			// Nothing to resume; run fresh.
		case err != nil:
			return err
		default:
			recs, rerr := experiments.ReadSweepRecords(bytes.NewReader(data))
			if rerr != nil {
				return fmt.Errorf("resuming from %s: %w", outPath, rerr)
			}
			skip = experiments.SweepDoneKeys(recs)
			// A killed sweep can leave a torn final line. If it is a
			// complete record that only lost its newline, terminate it;
			// otherwise cut it so the stitched file stays valid JSONL
			// (the torn job re-runs — its key is not in the skip set).
			if i := bytes.LastIndexByte(data, '\n'); i+1 < len(data) {
				tail := bytes.TrimSpace(data[i+1:])
				if len(tail) > 0 && tail[0] == '{' && json.Valid(tail) {
					needNewline = true
				} else if err := os.Truncate(outPath, int64(i+1)); err != nil {
					return err
				}
			}
		}
	}

	mode := os.O_CREATE | os.O_WRONLY
	if resume {
		mode |= os.O_APPEND
	} else {
		mode |= os.O_TRUNC
	}
	f, err := os.OpenFile(outPath, mode, 0o644)
	if err != nil {
		return err
	}
	if needNewline {
		if _, err := f.WriteString("\n"); err != nil {
			f.Close()
			return err
		}
	}

	if !quiet {
		fmt.Printf("sweep: %d jobs (%d skipped), %d workers, streaming to %s\n",
			len(jobs), len(skip), parallel, outPath)
	}
	start := time.Now()
	_, _, err = experiments.Sweep(ctx, jobs, roster, f, experiments.SweepOptions{
		Workers:  parallel,
		Timeout:  timeout,
		Skip:     skip,
		Progress: progressPrinter(quiet, 100, "jobs"),
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if !quiet {
		fmt.Printf("sweep done in %s\n\n", time.Since(start).Round(time.Second))
	}

	// Aggregate everything on disk, so resumed sweeps report the union.
	rf, err := os.Open(outPath)
	if err != nil {
		return err
	}
	recs, err := experiments.ReadSweepRecords(rf)
	rf.Close()
	if err != nil {
		return err
	}
	failed := 0
	for _, rec := range recs {
		if rec.Err != "" {
			failed++
		}
	}
	if failed > 0 {
		fmt.Printf("warning: %d/%d jobs failed (see err fields in %s)\n\n", failed, len(recs), outPath)
	}
	results, err := experiments.SweepResults(recs)
	if err != nil {
		return err
	}
	fmt.Println(experiments.Fig4MedianCostRatio(results, names).String())
	fmt.Println(experiments.Fig8RunningTime(results, names).String())
	if len(mapRoster) > 1 {
		fmt.Println(experiments.MappingTable(results).String())
	}
	return nil
}

// progressPrinter returns a progress callback that prints every
// every-th count and the last one, with the seconds since its creation.
func progressPrinter(quiet bool, every int, unit string) func(done, total int) {
	start := time.Now()
	return func(done, total int) {
		if !quiet && total > 0 && (done%every == 0 || done == total) {
			fmt.Printf("  %d/%d %s (%.0fs)\n", done, total, unit, time.Since(start).Seconds())
		}
	}
}

// arrivalOpts carries the -only arrival flag values into run.
type arrivalOpts struct {
	rates    string
	zones    string
	arrivals int
}

// parseFloatList parses a comma-separated list of numbers.
func parseFloatList(s string) ([]float64, error) {
	var out []float64
	for _, raw := range strings.Split(s, ",") {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return nil, fmt.Errorf("bad number %q", raw)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

// parseIntList parses a comma-separated list of integers.
func parseIntList(s string) ([]int, error) {
	fs, err := parseFloatList(s)
	if err != nil {
		return nil, err
	}
	out := make([]int, len(fs))
	for i, v := range fs {
		out[i] = int(v)
		if v != float64(out[i]) {
			return nil, fmt.Errorf("bad integer %g", v)
		}
	}
	return out, nil
}

// run is artifact mode: it regenerates the tables selected by -only.
// Every (spec, algorithm) → cost job runs on the sweep engine with the
// stream discarded, and the first failed job aborts the run.
func run(ctx context.Context, maxTasks int, seed uint64, workers int, outDir, only string, zones int, quiet bool, arr arrivalOpts) error {
	want := map[string]bool{}
	for _, name := range strings.Split(only, ",") {
		want[strings.TrimSpace(name)] = true
	}
	all := want["all"]
	selected := func(name string) bool { return all || want[name] }

	var emitted []*experiments.Table
	emit := func(name string, t *experiments.Table) {
		fmt.Println(t.String())
		if outDir != "" {
			path := filepath.Join(outDir, name+".csv")
			if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "warning: writing %s: %v\n", path, err)
			}
		}
		emitted = append(emitted, t)
	}
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
	}
	// sweep runs every algorithm on every spec. An artifact needs every
	// cell, so the first failed job is the error.
	sweep := func(specs []experiments.Spec, algos []experiments.Algorithm, progress func(done, total int)) ([]experiments.Result, error) {
		jobs := experiments.Jobs(specs, experiments.AlgoNames(algos))
		results, failed, err := experiments.Sweep(ctx, jobs, algos, io.Discard,
			experiments.SweepOptions{Workers: workers, Progress: progress})
		if err == nil && len(failed) > 0 {
			err = failed[0]
		}
		return results, err
	}

	if selected("table1") {
		emit("table1", experiments.Table1Platform())
	}

	// The main corpus powers figures 1-6, 8, 12-17.
	needMain := false
	for _, name := range []string{"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig8", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17"} {
		if selected(name) {
			needMain = true
		}
	}
	if needMain {
		specs := experiments.Corpus(maxTasks, seed)
		algos := experiments.LSAlgorithms()
		names := experiments.AlgoNames(algos)
		fmt.Printf("running main corpus: %d instances x %d algorithms (max %d tasks)\n",
			len(specs), len(algos), maxTasks)
		start := time.Now()
		results, err := sweep(specs, algos, progressPrinter(quiet, 100, "jobs"))
		if err != nil {
			return err
		}
		fmt.Printf("main corpus done in %s\n\n", time.Since(start).Round(time.Second))

		if selected("fig1") {
			emit("fig1", experiments.Fig1Ranks(results, names))
		}
		if selected("fig2") {
			emit("fig2", experiments.Fig2PerfProfile(results, names))
		}
		if selected("fig3") {
			for i, t := range experiments.Fig3PerfProfileByDeadline(results, names) {
				emit(fmt.Sprintf("fig3_%d", i), t)
			}
		}
		if selected("fig4") {
			emit("fig4", experiments.Fig4MedianCostRatio(results, names))
		}
		if selected("fig5") {
			for i, t := range experiments.Fig5CostRatioByDeadline(results, names) {
				emit(fmt.Sprintf("fig5_%d", i), t)
			}
		}
		if selected("fig6") {
			emit("fig6", experiments.Fig6BoxPlots(results, names))
		}
		if selected("fig8") {
			emit("fig8", experiments.Fig8RunningTime(results, names))
		}
		if selected("fig12") {
			emit("fig12", experiments.Fig12RunningTimeLarge(results, names))
		}
		if selected("fig13") {
			emit("fig13", experiments.Fig13RunningTimeByDeadline(results, names))
		}
		if selected("fig14") {
			for i, t := range experiments.Fig14CostRatioByCluster(results, names) {
				emit(fmt.Sprintf("fig14_%d", i), t)
			}
		}
		if selected("fig15") {
			for i, t := range experiments.Fig15CostRatioByScenario(results, names) {
				emit(fmt.Sprintf("fig15_%d", i), t)
			}
		}
		if selected("fig16") {
			for i, t := range experiments.Fig16CostRatioBySize(results, names) {
				emit(fmt.Sprintf("fig16_%d", i), t)
			}
		}
		if selected("fig17") {
			for i, t := range experiments.Fig17PerfProfileByCluster(results, names) {
				emit(fmt.Sprintf("fig17_%d", i), t)
			}
		}
	}

	if selected("table2") {
		specs := experiments.AblationCorpus(maxTasks, seed)
		fmt.Printf("running ablation corpus (Table 2): %d instances x 17 algorithms\n", len(specs))
		start := time.Now()
		results, err := sweep(specs, experiments.Algorithms(), nil)
		if err != nil {
			return err
		}
		fmt.Printf("ablation done in %s\n\n", time.Since(start).Round(time.Second))
		emit("table2", experiments.Table2LocalSearchAblation(results))
	}

	if selected("fig7") {
		fmt.Println("running exact-comparison corpus (Figure 7)")
		t, err := experiments.Fig7ExactComparison(ctx, seed, experiments.LSAlgorithms(), 20_000_000)
		if err != nil {
			return err
		}
		emit("fig7", t)
	}

	// Ablations and the Section 7 extension run on a reduced corpus (they
	// multiply the per-instance work by the sweep size) and are opt-in:
	// they run only when named explicitly, not under "all".
	if want["ablations"] {
		cap := maxTasks
		if cap <= 0 || cap > 500 {
			cap = 500
		}
		specs := experiments.Corpus(cap, seed)
		fmt.Printf("running ablations on %d instances\n", len(specs))
		if t, err := experiments.AblationK(ctx, specs, []int{1, 2, 3, 4}, workers); err != nil {
			return err
		} else {
			emit("ablation_k", t)
		}
		if t, err := experiments.AblationMu(ctx, specs, []int64{1, 5, 10, 20}, workers); err != nil {
			return err
		} else {
			emit("ablation_mu", t)
		}
		if t, err := experiments.AblationImprovers(ctx, specs, workers); err != nil {
			return err
		} else {
			emit("ablation_improvers", t)
		}
		if t, err := experiments.ExtensionTwoPass(ctx, specs, workers); err != nil {
			return err
		} else {
			emit("extension_twopass", t)
		}
	}

	// The mapping ablation (fixed vs each policy vs map-search on the
	// multi-zone grid, plus the per-zone load-shift table) is opt-in:
	// every mapping multiplies the per-instance work.
	if want["mapping"] {
		cap := maxTasks
		if cap <= 0 || cap > 300 {
			cap = 300
		}
		zn := zones
		if zn < 2 {
			zn = 2
		}
		specs := experiments.MultiZoneCorpus(cap, seed, zn)
		fmt.Printf("running mapping ablation: %d instances x %d mappings (%d zones)\n",
			len(specs), len(experiments.Mappings()), zn)
		roster := []experiments.Algorithm{}
		for _, a := range experiments.LSAlgorithms() {
			if a.Name == experiments.BaselineName || a.Name == "pressWR-LS" {
				roster = append(roster, a)
			}
		}
		// Failures stay in-band here: remapped cells with tight deadlines
		// can be legitimately infeasible (the mapping cannot meet the
		// fixed mapping's horizon), and the table drops them.
		jobs := experiments.MappingGrid(cap, seed, 1, zn, experiments.Mappings(), experiments.AlgoNames(roster))
		results, _, err := experiments.Sweep(ctx, jobs, roster, io.Discard, experiments.SweepOptions{Workers: workers})
		if err != nil {
			return err
		}
		emit("mapping_ablation", experiments.MappingTable(results))
		if t, err := experiments.ZoneShiftTable(ctx, specs, workers); err != nil {
			return err
		} else {
			emit("zone_shift", t)
		}
	}

	// The online arrival sweep (Poisson arrivals through the tenancy
	// manager's admission control and rolling horizon) is opt-in: each
	// cell simulates a full multi-workflow trace.
	if want["arrival"] {
		rates, err := parseFloatList(arr.rates)
		if err != nil {
			return fmt.Errorf("-arrival-rates: %w", err)
		}
		zoneCounts, err := parseIntList(arr.zones)
		if err != nil {
			return fmt.Errorf("-arrival-zones: %w", err)
		}
		specs := experiments.ArrivalGrid(maxTasks, seed, rates, zoneCounts, arr.arrivals)
		fmt.Printf("running online arrival sweep: %d cells (%d load factors x %d zone counts)\n",
			len(specs), len(rates), len(zoneCounts))
		start := time.Now()
		results, err := experiments.RunArrivals(ctx, specs, workers, progressPrinter(quiet, 4, "cells"))
		if err != nil {
			return err
		}
		fmt.Printf("arrival sweep done in %s\n\n", time.Since(start).Round(time.Second))
		emit("arrival_frontier", experiments.ArrivalFrontier(results))
	}

	// Robustness studies (runtime noise, forecast error) are opt-in too.
	if want["robustness"] {
		cap := maxTasks
		if cap <= 0 || cap > 500 {
			cap = 500
		}
		specs := experiments.Corpus(cap, seed)
		fmt.Printf("running robustness studies on %d instances\n", len(specs))
		if t, err := experiments.RobustnessRuntime(ctx, specs, []float64{0, 0.1, 0.2, 0.4}, workers); err != nil {
			return err
		} else {
			emit("robustness_runtime", t)
		}
		if t, err := experiments.RobustnessForecast(ctx, specs, []float64{0, 0.1, 0.25, 0.5}, workers); err != nil {
			return err
		} else {
			emit("robustness_forecast", t)
		}
	}

	if len(emitted) == 0 {
		return fmt.Errorf("no artifacts selected by -only=%q", only)
	}
	return nil
}
