// Benchmarks regenerating every table and figure of the paper's
// evaluation (Section 6 and Appendix A.5), plus the core algorithmic
// kernels. Each BenchmarkTableX/BenchmarkFigX target measures the
// regeneration of that artifact on a miniature corpus and reports a
// headline metric; `cmd/experiments` produces the full-size artifacts.
package cawosched_test

import (
	"context"

	"strconv"
	"strings"
	"sync"
	"testing"

	cawosched "repro"
	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/exact"
	"repro/internal/experiments"
	"repro/internal/npc"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/tenancy"
	"repro/internal/wfgen"
)

// ---- shared miniature corpus -------------------------------------------

var (
	benchOnce    sync.Once
	benchResults []experiments.Result
	benchNames   []string
	benchErr     error
)

func benchSpecs() []experiments.Spec {
	var specs []experiments.Spec
	for _, fam := range []wfgen.Family{wfgen.Bacass, wfgen.Eager} {
		for _, cl := range []experiments.ClusterSize{experiments.Small, experiments.Large} {
			for _, sc := range []power.Scenario{power.S1, power.S3} {
				for _, df := range experiments.DeadlineFactors() {
					specs = append(specs, experiments.Spec{
						Family: fam, N: 60, Cluster: cl, Scenario: sc,
						DeadlineFactor: df, Seed: 42,
					})
				}
			}
		}
	}
	return specs
}

func corpusResults(b *testing.B) ([]experiments.Result, []string) {
	b.Helper()
	benchOnce.Do(func() {
		algos := experiments.LSAlgorithms()
		benchNames = make([]string, len(algos))
		for i, a := range algos {
			benchNames[i] = a.Name
		}
		benchResults, benchErr = experiments.Run(context.Background(), benchSpecs(), algos, 0, nil)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchResults, benchNames
}

func firstFloat(b *testing.B, cell string) float64 {
	b.Helper()
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		b.Fatalf("bad cell %q: %v", cell, err)
	}
	return v
}

// ---- Table 1 -------------------------------------------------------------

func BenchmarkTable1ClusterBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Table1Platform()
		if len(t.Rows) != 6 {
			b.Fatal("Table 1 wrong")
		}
		c := platform.Large(uint64(i))
		if c.NumCompute() != 144 {
			b.Fatal("cluster wrong")
		}
	}
}

// ---- Figures 1-6, 8, 12-17 (main corpus) ---------------------------------

func BenchmarkFig1Ranks(b *testing.B) {
	results, names := corpusResults(b)
	b.ResetTimer()
	var asapRankLast float64
	for i := 0; i < b.N; i++ {
		t := experiments.Fig1Ranks(results, names)
		cell := strings.TrimSuffix(t.Rows[0][len(t.Rows[0])-1], "%")
		asapRankLast = firstFloat(b, cell)
	}
	b.ReportMetric(asapRankLast, "ASAP_last_rank_%")
}

func BenchmarkFig2PerfProfile(b *testing.B) {
	results, names := corpusResults(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := experiments.Fig2PerfProfile(results, names)
		if len(t.Rows) != len(names) {
			b.Fatal("fig2 wrong")
		}
	}
}

func BenchmarkFig3PerfProfileByDeadline(b *testing.B) {
	results, names := corpusResults(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts := experiments.Fig3PerfProfileByDeadline(results, names)
		if len(ts) != 4 {
			b.Fatal("fig3 wrong")
		}
	}
}

func BenchmarkFig4MedianCostRatio(b *testing.B) {
	results, names := corpusResults(b)
	b.ResetTimer()
	var medianRatio float64
	for i := 0; i < b.N; i++ {
		t := experiments.Fig4MedianCostRatio(results, names)
		medianRatio = firstFloat(b, t.Rows[len(t.Rows)-1][1]) // pressWR-LS
	}
	b.ReportMetric(medianRatio, "pressWR-LS_median_ratio")
}

func BenchmarkFig5CostRatioByDeadline(b *testing.B) {
	results, names := corpusResults(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(experiments.Fig5CostRatioByDeadline(results, names)) != 4 {
			b.Fatal("fig5 wrong")
		}
	}
}

func BenchmarkFig6BoxPlots(b *testing.B) {
	results, names := corpusResults(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(experiments.Fig6BoxPlots(results, names).Rows) == 0 {
			b.Fatal("fig6 wrong")
		}
	}
}

func BenchmarkFig8RunningTime(b *testing.B) {
	results, names := corpusResults(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(experiments.Fig8RunningTime(results, names).Rows) != len(names) {
			b.Fatal("fig8 wrong")
		}
	}
}

func BenchmarkFig12RunningTimeLarge(b *testing.B) {
	results, names := corpusResults(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(experiments.Fig12RunningTimeLarge(results, names).Rows) == 0 {
			b.Fatal("fig12 wrong")
		}
	}
}

func BenchmarkFig13RunningTimeByDeadline(b *testing.B) {
	results, names := corpusResults(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(experiments.Fig13RunningTimeByDeadline(results, names).Columns) != 5 {
			b.Fatal("fig13 wrong")
		}
	}
}

func BenchmarkFig14CostRatioByCluster(b *testing.B) {
	results, names := corpusResults(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(experiments.Fig14CostRatioByCluster(results, names)) != 2 {
			b.Fatal("fig14 wrong")
		}
	}
}

func BenchmarkFig15CostRatioByScenario(b *testing.B) {
	results, names := corpusResults(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(experiments.Fig15CostRatioByScenario(results, names)) != 4 {
			b.Fatal("fig15 wrong")
		}
	}
}

func BenchmarkFig16CostRatioBySize(b *testing.B) {
	results, names := corpusResults(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(experiments.Fig16CostRatioBySize(results, names)) == 0 {
			b.Fatal("fig16 wrong")
		}
	}
}

func BenchmarkFig17PerfProfileByCluster(b *testing.B) {
	results, names := corpusResults(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(experiments.Fig17PerfProfileByCluster(results, names)) != 2 {
			b.Fatal("fig17 wrong")
		}
	}
}

// ---- Figure 7 (exact comparison) ------------------------------------------

func BenchmarkFig7ExactComparison(b *testing.B) {
	algos := experiments.LSAlgorithms()
	var optFrac string
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig7ExactComparison(context.Background(), 7, algos, 5_000_000)
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) == 0 {
			b.Fatal("fig7 empty")
		}
		optFrac = t.Rows[len(t.Rows)-1][4]
	}
	_ = optFrac
}

// ---- Table 2 (local search ablation) ---------------------------------------

func BenchmarkTable2LocalSearchAblation(b *testing.B) {
	specs := []experiments.Spec{
		{Family: wfgen.Atacseq, N: 60, Cluster: experiments.Small, Scenario: power.S1, DeadlineFactor: 2, Seed: 42},
		{Family: wfgen.Atacseq, N: 60, Cluster: experiments.Small, Scenario: power.S3, DeadlineFactor: 3, Seed: 42},
		{Family: wfgen.Bacass, N: 57, Cluster: experiments.Small, Scenario: power.S1, DeadlineFactor: 2, Seed: 42},
		{Family: wfgen.Bacass, N: 57, Cluster: experiments.Large, Scenario: power.S2, DeadlineFactor: 1.5, Seed: 42},
	}
	var avg float64
	for i := 0; i < b.N; i++ {
		results, err := experiments.Run(context.Background(), specs, experiments.Algorithms(), 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		t := experiments.Table2LocalSearchAblation(results)
		if len(t.Rows) != 4 {
			b.Fatal("table2 wrong")
		}
		avg = firstFloat(b, t.Rows[3][3])
	}
	b.ReportMetric(avg, "pressWR_LS_avg_ratio")
}

// ---- ablations and the Section 7 extension ---------------------------------

func ablationBenchSpecs() []experiments.Spec {
	return []experiments.Spec{
		{Family: wfgen.Bacass, N: 50, Cluster: experiments.Small, Scenario: power.S1, DeadlineFactor: 2, Seed: 42},
		{Family: wfgen.Eager, N: 50, Cluster: experiments.Small, Scenario: power.S3, DeadlineFactor: 1.5, Seed: 42},
	}
}

func BenchmarkAblationK(b *testing.B) {
	specs := ablationBenchSpecs()
	for i := 0; i < b.N; i++ {
		t, err := experiments.AblationK(context.Background(), specs, []int{1, 3}, 0)
		if err != nil || len(t.Rows) != 2 {
			b.Fatalf("rows %d err %v", len(t.Rows), err)
		}
	}
}

func BenchmarkAblationMu(b *testing.B) {
	specs := ablationBenchSpecs()
	for i := 0; i < b.N; i++ {
		t, err := experiments.AblationMu(context.Background(), specs, []int64{5, 10}, 0)
		if err != nil || len(t.Rows) != 2 {
			b.Fatalf("rows %d err %v", len(t.Rows), err)
		}
	}
}

func BenchmarkAblationImprovers(b *testing.B) {
	specs := ablationBenchSpecs()
	for i := 0; i < b.N; i++ {
		t, err := experiments.AblationImprovers(context.Background(), specs, 0)
		if err != nil || len(t.Rows) != 4 {
			b.Fatalf("rows %d err %v", len(t.Rows), err)
		}
	}
}

func BenchmarkAblationOrdering(b *testing.B) {
	specs := ablationBenchSpecs()
	for i := 0; i < b.N; i++ {
		t, err := experiments.AblationOrdering(context.Background(), specs, 0)
		if err != nil || len(t.Rows) != 8 {
			b.Fatalf("rows %d err %v", len(t.Rows), err)
		}
	}
}

func BenchmarkAblationGreedies(b *testing.B) {
	specs := ablationBenchSpecs()
	for i := 0; i < b.N; i++ {
		t, err := experiments.AblationGreedies(context.Background(), specs, 0)
		if err != nil || len(t.Rows) != 4 {
			b.Fatalf("rows %d err %v", len(t.Rows), err)
		}
	}
}

func BenchmarkExtensionTwoPass(b *testing.B) {
	specs := ablationBenchSpecs()
	for i := 0; i < b.N; i++ {
		t, err := experiments.ExtensionTwoPass(context.Background(), specs, 0)
		if err != nil || len(t.Rows) != 3 {
			b.Fatalf("rows %d err %v", len(t.Rows), err)
		}
	}
}

// ---- robustness studies ------------------------------------------------------

func BenchmarkRobustnessRuntime(b *testing.B) {
	specs := ablationBenchSpecs()
	for i := 0; i < b.N; i++ {
		t, err := experiments.RobustnessRuntime(context.Background(), specs, []float64{0, 0.2}, 0)
		if err != nil || len(t.Rows) != 2 {
			b.Fatalf("rows %d err %v", len(t.Rows), err)
		}
	}
}

func BenchmarkRobustnessForecast(b *testing.B) {
	specs := ablationBenchSpecs()
	for i := 0; i < b.N; i++ {
		t, err := experiments.RobustnessForecast(context.Background(), specs, []float64{0, 0.25}, 0)
		if err != nil || len(t.Rows) != 2 {
			b.Fatalf("rows %d err %v", len(t.Rows), err)
		}
	}
}

func BenchmarkSimulatorReplay(b *testing.B) {
	inst, prof := benchInstance(b, 500)
	plan := cawosched.ASAP(inst)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Replay(inst, plan, prof)
		if err != nil || res.Shifted != 0 {
			b.Fatalf("replay err %v shifted %d", err, res.Shifted)
		}
	}
}

// ---- theory: Theorem 4.1 and 4.3 --------------------------------------------

func BenchmarkUniprocessorDP(b *testing.B) {
	r := rng.New(5)
	durs := make([]int64, 25)
	var total int64
	for i := range durs {
		durs[i] = r.IntRange(1, 9)
		total += durs[i]
	}
	prof, err := power.Generate(power.S1, total*2, 24, 0, 30, r)
	if err != nil {
		b.Fatal(err)
	}
	p := &dp.Problem{Dur: durs, Idle: 2, Work: 6, Prof: prof}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dp.Solve(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNPCReduction(b *testing.B) {
	p := &npc.ThreePartition{X: []int64{6, 6, 8, 6, 7, 7}, B: 20}
	for i := 0; i < b.N; i++ {
		red, err := npc.Build(p)
		if err != nil {
			b.Fatal(err)
		}
		_, cost, err := exact.Solve(context.Background(), red.Instance, power.SingleZone(red.Profile), exact.Options{})
		if err != nil || cost != 0 {
			b.Fatalf("cost %d err %v", cost, err)
		}
	}
}

// ---- core kernels ------------------------------------------------------------

func benchInstance(b *testing.B, n int) (*cawosched.Instance, *cawosched.Profile) {
	b.Helper()
	wf, err := cawosched.GenerateWorkflow(cawosched.Atacseq, n, 42)
	if err != nil {
		b.Fatal(err)
	}
	inst, err := cawosched.PlanHEFT(wf, cawosched.SmallCluster(42))
	if err != nil {
		b.Fatal(err)
	}
	D := cawosched.ASAPMakespan(inst)
	prof, err := cawosched.ProfileForInstance(inst, cawosched.S1, 2*D, 24, 42)
	if err != nil {
		b.Fatal(err)
	}
	return inst, prof
}

func BenchmarkASAP500(b *testing.B) {
	inst, _ := benchInstance(b, 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cawosched.ASAP(inst)
	}
}

func BenchmarkGreedySlack500(b *testing.B) {
	inst, prof := benchInstance(b, 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := cawosched.RunContext(context.Background(), inst, prof, cawosched.Options{Score: cawosched.ScoreSlack}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGreedyPressWR500(b *testing.B) {
	inst, prof := benchInstance(b, 500)
	opt := cawosched.Options{Score: cawosched.ScorePressureW, Refined: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := cawosched.RunContext(context.Background(), inst, prof, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPressWRLS500(b *testing.B) {
	inst, prof := benchInstance(b, 500)
	opt := cawosched.Options{Score: cawosched.ScorePressureW, Refined: true, LocalSearch: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := cawosched.RunContext(context.Background(), inst, prof, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// localSearchInput builds the greedy schedule the hill climber starts
// from, at the paper's default µ = 10.
func localSearchInput(b *testing.B, n int) (*cawosched.Instance, *cawosched.Profile, *cawosched.Schedule) {
	b.Helper()
	inst, prof := benchInstance(b, n)
	s, _, err := cawosched.RunContext(context.Background(), inst, prof, cawosched.Options{Score: cawosched.ScorePressureW, Refined: true})
	if err != nil {
		b.Fatal(err)
	}
	return inst, prof, s
}

// BenchmarkLocalSearch measures the interval-jumping hill climber
// (schedule.FirstImprovingMove); BenchmarkLocalSearchUnitStep is the
// original O(µ) scan it replaced. Both accept identical moves, so the
// ns/op ratio is the pure candidate-enumeration speedup.
func BenchmarkLocalSearch(b *testing.B) {
	inst, prof, s := localSearchInput(b, 500)
	zs := power.SingleZone(prof)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.LocalSearch(context.Background(), inst, zs, s.Clone(), core.DefaultMu, 1, nil)
	}
}

func BenchmarkLocalSearchUnitStep(b *testing.B) {
	inst, prof, s := localSearchInput(b, 500)
	zs := power.SingleZone(prof)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.LocalSearchUnitStep(context.Background(), inst, zs, s.Clone(), core.DefaultMu, nil)
	}
}

func BenchmarkCarbonCost500(b *testing.B) {
	inst, prof := benchInstance(b, 500)
	s := cawosched.ASAP(inst)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cawosched.CarbonCost(inst, s, prof)
	}
}

// ---- zone layer --------------------------------------------------------------

// benchZonedInstance builds a 500-task instance on a 3-zone small cluster
// with one rotated-scenario profile per zone.
func benchZonedInstance(b *testing.B, n, zones int) (*cawosched.Instance, *cawosched.ZoneSet) {
	b.Helper()
	wf, err := cawosched.GenerateWorkflow(cawosched.Atacseq, n, 42)
	if err != nil {
		b.Fatal(err)
	}
	inst, err := cawosched.PlanHEFT(wf, cawosched.SmallZonedCluster(42, zones))
	if err != nil {
		b.Fatal(err)
	}
	D := cawosched.ASAPMakespan(inst)
	zs, err := cawosched.ZonesForInstance(inst,
		[]cawosched.Scenario{cawosched.S1, cawosched.S2, cawosched.S3, cawosched.S4}, 2*D, 24, 42)
	if err != nil {
		b.Fatal(err)
	}
	return inst, zs
}

// BenchmarkCarbonCostZones measures the per-zone cost sweep (3 zones);
// compare against BenchmarkCarbonCost500, the single-zone sweep over the
// same workflow size.
func BenchmarkCarbonCostZones(b *testing.B) {
	inst, zs := benchZonedInstance(b, 500, 3)
	s := cawosched.ASAP(inst)
	if got, want := cawosched.CarbonCostZones(inst, s, zs), int64(0); got < want {
		b.Fatalf("cost %d", got)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cawosched.CarbonCostZones(inst, s, zs)
	}
}

// BenchmarkPressWRLSZones runs the paper's best variant end to end on the
// 3-zone instance (the zone-aware counterpart of BenchmarkPressWRLS500).
func BenchmarkPressWRLSZones(b *testing.B) {
	inst, zs := benchZonedInstance(b, 500, 3)
	opt := cawosched.Options{Score: cawosched.ScorePressureW, Refined: true, LocalSearch: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := cawosched.RunZonesContext(context.Background(), inst, zs, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPressWRLSZonesTraced is BenchmarkPressWRLSZones with a full
// observability context (metrics registry + tracer): the delta between the
// two is the cost of tracing and metering a solve. Without the context the
// instrumentation is a handful of nil checks, so the untraced benchmark
// must stay within noise of its pre-observability baseline.
func BenchmarkPressWRLSZonesTraced(b *testing.B) {
	inst, zs := benchZonedInstance(b, 500, 3)
	opt := cawosched.Options{Score: cawosched.ScorePressureW, Refined: true, LocalSearch: true}
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(obs.DefaultTraceBuffer)
	ctx := obs.WithTracer(obs.WithMeter(context.Background(), reg), tracer)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := cawosched.RunZonesContext(ctx, inst, zs, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMapAndSolve measures the two-pass mapping search on the
// 3-zone instance with K = 3 candidate policies (fixed EFT plus both
// zone-aware policies): K mapping passes, K instance builds, K zone-aware
// schedules. Compare against BenchmarkPressWRLSZones, the fixed-mapping
// second pass alone on the same workload.
func BenchmarkMapAndSolve(b *testing.B) {
	wf, err := cawosched.GenerateWorkflow(cawosched.Atacseq, 500, 42)
	if err != nil {
		b.Fatal(err)
	}
	cluster := cawosched.SmallZonedCluster(42, 3)
	inst, err := cawosched.PlanHEFT(wf, cluster)
	if err != nil {
		b.Fatal(err)
	}
	D := cawosched.ASAPMakespan(inst)
	zs, err := cawosched.ZonesForInstance(inst,
		[]cawosched.Scenario{cawosched.S1, cawosched.S2, cawosched.S3, cawosched.S4}, 2*D, 24, 42)
	if err != nil {
		b.Fatal(err)
	}
	opt := cawosched.MapSolveOptions{
		Policies: []cawosched.MappingPolicy{cawosched.MapEFT, cawosched.MapZoneGreen, cawosched.MapZoneEnergyPerWork},
		Sched:    cawosched.Options{Score: cawosched.ScorePressureW, Refined: true, LocalSearch: true},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cawosched.MapAndSolve(context.Background(), wf, cluster, zs, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveCacheHit measures a fully warmed Solve: plan cache + solve
// response cache hit, i.e. the steady-state request latency of schedd on a
// repeated workload.
func BenchmarkSolveCacheHit(b *testing.B) {
	wf, err := cawosched.GenerateWorkflow(cawosched.Methylseq, 200, 42)
	if err != nil {
		b.Fatal(err)
	}
	solver := cawosched.NewSolver(cawosched.SmallCluster(42))
	req := cawosched.Request{Workflow: wf, Variant: "pressWR-LS", Seed: 42}
	warm, err := solver.Solve(context.Background(), req)
	if err != nil {
		b.Fatal(err)
	}
	if warm.CacheHit {
		b.Fatal("first solve hit the cache")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := solver.Solve(context.Background(), req)
		if err != nil {
			b.Fatal(err)
		}
		if !res.CacheHit {
			b.Fatal("cache miss on a warmed request")
		}
	}
}

// benchContendedCache measures warmed cache hits under concurrent clients
// spread over several hot keys — the scale-out serving workload. The hot
// keys land on different shards, so the sharded configuration serves them
// with independent locks while the single-shard configuration funnels all
// clients through one mutex.
func benchContendedCache(b *testing.B, opts ...cawosched.SolverOption) {
	b.Helper()
	const hotKeys = 8
	wf, err := cawosched.GenerateWorkflow(cawosched.Methylseq, 60, 42)
	if err != nil {
		b.Fatal(err)
	}
	solver := cawosched.NewSolver(cawosched.SmallCluster(42), opts...)
	reqs := make([]cawosched.Request, hotKeys)
	for k := range reqs {
		reqs[k] = cawosched.Request{Workflow: wf, Variant: "pressWR-LS", Seed: uint64(k + 1)}
		if _, err := solver.Solve(context.Background(), reqs[k]); err != nil {
			b.Fatal(err)
		}
	}
	b.SetParallelism(4) // 4×GOMAXPROCS client goroutines
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		k := 0
		for pb.Next() {
			res, err := solver.Solve(context.Background(), reqs[k%hotKeys])
			if err != nil {
				b.Fatal(err)
			}
			if !res.CacheHit {
				b.Fatal("cache miss on a warmed request")
			}
			k++
		}
	})
	b.StopTimer()
	st := solver.Stats()
	b.ReportMetric(float64(st.SolveContention)/float64(b.N), "contended/op")
}

// BenchmarkSolveCacheContended is the sharded configuration (the schedd
// default: GOMAXPROCS-sized power-of-two shard count).
func BenchmarkSolveCacheContended(b *testing.B) {
	benchContendedCache(b, cawosched.WithCacheShards(16))
}

// BenchmarkSolveCacheContendedSingleShard funnels the identical workload
// through one global cache mutex — the pre-sharding behavior, kept as the
// contention baseline.
func BenchmarkSolveCacheContendedSingleShard(b *testing.B) {
	benchContendedCache(b, cawosched.WithCacheShards(1))
}

// ---- online scheduling (tenancy) ---------------------------------------

// benchManager assembles a 2-zone tenancy manager over a simulated clock,
// mirroring the schedd online configuration.
func benchManager(b *testing.B) (*tenancy.Manager, *tenancy.SimClock) {
	b.Helper()
	cluster := cawosched.SmallZonedCluster(42, 2)
	specs := make([]power.ZoneSpec, cluster.NumZones())
	for z := range specs {
		gmin, gmax := power.PlatformBounds(cluster.ZoneComputeIdle(z), cluster.ZoneComputeWork(z))
		specs[z] = power.ZoneSpec{
			Name: "z" + strconv.Itoa(z), Scenario: power.Scenarios()[z], Gmin: gmin, Gmax: gmax,
		}
	}
	zs, err := power.GenerateZones(specs, 480, 24, 42)
	if err != nil {
		b.Fatal(err)
	}
	clock := tenancy.NewSimClock(0)
	m, err := tenancy.NewManager(tenancy.Config{
		Solver: cawosched.NewSolver(cluster),
		Supply: zs,
		Clock:  clock,
	})
	if err != nil {
		b.Fatal(err)
	}
	return m, clock
}

// BenchmarkAdmitWorkflow measures admission latency under a live ledger:
// each iteration advances the clock one deadline window and admits a fresh
// submission of the memoized workflow shape, so every pass solves against
// a changed residual view and commits real reservations.
func BenchmarkAdmitWorkflow(b *testing.B) {
	m, clock := benchManager(b)
	wf, err := cawosched.GenerateWorkflow(cawosched.Bacass, 100, 42)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	// Warm the plan memo so iterations measure admission, not HEFT.
	st, err := m.Submit(ctx, tenancy.SubmitRequest{Workflow: wf, DeadlineFactor: 3})
	if err != nil {
		b.Fatal(err)
	}
	window := st.Deadline - st.SubmittedAt
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clock.Set(int64(i+1) * window)
		if _, err := m.Submit(ctx, tenancy.SubmitRequest{Workflow: wf, DeadlineFactor: 3}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRebalanceAdmitted measures one rolling-horizon pass over a
// backlog of admitted-but-unstarted workflows (the steady-state cost of
// schedd's -rebalance-every loop).
func BenchmarkRebalanceAdmitted(b *testing.B) {
	m, clock := benchManager(b)
	ctx := context.Background()
	// A zero-slack foreground tenant depletes the green window, so the
	// slack-rich backlog admitted behind it lands compactly; it is running
	// by measurement time and the backlog is admitted-but-unstarted —
	// exactly what a rolling-horizon pass re-solves.
	fg, err := cawosched.GenerateWorkflow(cawosched.Bacass, 50, 11)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := m.Submit(ctx, tenancy.SubmitRequest{Workflow: fg, DeadlineFactor: 1}); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		wf, err := cawosched.GenerateWorkflow(cawosched.Bacass, 30, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Submit(ctx, tenancy.SubmitRequest{Workflow: wf, DeadlineFactor: 12}); err != nil {
			b.Fatal(err)
		}
	}
	clock.Set(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := m.Rebalance(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Considered == 0 {
			b.Fatal("rebalance pass considered no workflows")
		}
	}
}
