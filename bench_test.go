// Micro-benchmarks: each isolates one function, for use under -benchmem
// and -cpuprofile. They are not a regression gate — the repo benchmark
// (bash bench/run.sh) is the one ledger; CI only runs each of these once.
package cawosched_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	cawosched "repro"
	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/power"
	"repro/internal/rng"
	"repro/internal/schedule"
	"repro/internal/tenancy"
)

// BenchmarkGreedy measures the budget greedy of Section 5.2 alone
// (pressWR score, refined subdivision, no local search): the 500-task
// single-zone instance the local-search benchmarks start from, the
// 1000-task 3-zone shape of the repo benchmark's solve_cold_1k, ten times
// that (T/J′ ≈ 1.2, where windows.Fix outweighs the budget structure),
// and a 60-task 3-zone workflow on each side of the rule that picks the
// budget structure's form (core.newBudgets): at twice the makespan the
// refined subdivision splits nearly every time unit and the dense form
// runs; at 250 times the makespan T/J′ ≈ 30–50 and the chunked form runs.
// Every other case runs dense. None of them is the admit_churn_60 shape
// (2 zones, deadline factor 30, about 150 supply intervals a zone):
// BenchmarkRun/60-2zone-DF30 is.
func BenchmarkGreedy(b *testing.B) {
	for _, c := range []struct {
		name     string
		n, zones int
		factor   int64
	}{{"500", 500, 1, 2}, {"1k-3zone", 1000, 3, 2}, {"10k-3zone", 10000, 3, 2}, {"60-3zone-DF2", 60, 3, 2}, {"60-3zone-DF250", 60, 3, 250}} {
		b.Run(c.name, func(b *testing.B) {
			inst, zs := benchZonedInstance(b, c.n, c.zones, c.factor)
			opt := core.Options{Score: core.ScorePressureW, Refined: true}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Greedy(context.Background(), inst, zs, opt, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRun measures one whole core.Run, greedy and hill climber, of
// the repo benchmark's variant pressWR-LS on a prebuilt instance: the
// shape of an admit_churn_60 submit (admitShapeInstance). Run it with
// -benchmem: most of what it allocates is the answer.
func BenchmarkRun(b *testing.B) {
	b.Run("60-2zone-DF30", func(b *testing.B) {
		inst, zs := admitShapeInstance(b)
		opt, err := core.LookupVariant("pressWR-LS")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := core.Run(context.Background(), inst, zs, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// admitShapeInstance builds the shape of one admit_churn_60 submit: a
// 60-task workflow on a 2-zone cluster, a horizon of 30 times its ASAP
// makespan, and per zone the window of a periodic supply of 24 intervals
// per 480 units over that horizon, about 150 intervals.
func admitShapeInstance(tb testing.TB) (*cawosched.Instance, *cawosched.ZoneSet) {
	tb.Helper()
	wf, err := cawosched.GenerateWorkflow(cawosched.Atacseq, 60, 42)
	if err != nil {
		tb.Fatal(err)
	}
	inst, err := cawosched.PlanHEFT(wf, cawosched.SmallZonedCluster(42, 2))
	if err != nil {
		tb.Fatal(err)
	}
	supply, err := cawosched.ZonesForInstance(inst, []cawosched.Scenario{cawosched.S1, cawosched.S2}, 480, 24, 42)
	if err != nil {
		tb.Fatal(err)
	}
	zs, err := tenancy.SupplyWindow(supply, 0, 30*cawosched.ASAPMakespan(inst))
	if err != nil {
		tb.Fatal(err)
	}
	for z := range zs.NumZones() {
		if j := zs.Profile(z).J(); j < 100 || j > 200 {
			tb.Fatalf("zone %d: %d supply intervals over T = %d, want about 150", z, j, zs.T())
		}
	}
	return inst, zs
}

// localSearchInput builds the greedy schedule the hill climber starts
// from, at the paper's default µ = 10.
func localSearchInput(b *testing.B, n int) (*cawosched.Instance, *cawosched.ZoneSet, *cawosched.Schedule) {
	b.Helper()
	inst, zs := benchZonedInstance(b, n, 1, 2)
	s, _, err := cawosched.RunZonesContext(context.Background(), inst, zs, cawosched.Options{Score: cawosched.ScorePressureW, Refined: true})
	if err != nil {
		b.Fatal(err)
	}
	return inst, zs, s
}

// BenchmarkLocalSearch measures the interval-jumping hill climber
// (schedule.FirstImprovingMove). It accepts the same moves as the original
// O(µ) scan, which is now only a test oracle (core's
// TestLocalSearchMatchesUnitStep). The 1000-task, 3-zone case is the shape
// of the repo benchmark's solve_cold_1k; scans/op are the task visits
// (Stats.LSScans) and evals/op the visits that had to run
// FirstImprovingMove, the rest being answered by "nothing a move touched
// since the last evaluation". The DF250 case stretches the same workflow
// over 250 × its makespan (T = 59 750), past the dense horizon limit, so
// its timelines are the sparse ones.
func BenchmarkLocalSearch(b *testing.B) {
	b.Run("500x1zone", func(b *testing.B) {
		inst, zs, s := localSearchInput(b, 500)
		benchLocalSearch(b, inst, zs, s)
	})
	for _, c := range []struct {
		name   string
		factor int64
		dense  bool
	}{{"1000x3zones", 2, true}, {"1000x3zones-DF250", 250, false}} {
		b.Run(c.name, func(b *testing.B) {
			inst, zs := benchZonedInstance(b, 1000, 3, c.factor)
			if schedule.DenseHorizon(zs.T()) != c.dense {
				b.Fatalf("horizon %d: dense timelines %v, want %v", zs.T(), !c.dense, c.dense)
			}
			s, _, err := core.Run(context.Background(), inst, zs, core.Options{Score: core.ScorePressureW, Refined: true})
			if err != nil {
				b.Fatal(err)
			}
			benchLocalSearch(b, inst, zs, s)
		})
	}
}

func benchLocalSearch(b *testing.B, inst *cawosched.Instance, zs *cawosched.ZoneSet, s *cawosched.Schedule) {
	var st core.Stats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st = core.Stats{}
		if err := core.LocalSearch(context.Background(), inst, zs, s.Clone(), core.DefaultMu, &st); err != nil {
			b.Fatal(err)
		}
	}
	// The search is deterministic: every iteration counts the same.
	b.ReportMetric(float64(st.LSScans), "scans/op")
	b.ReportMetric(float64(st.LSEvals), "evals/op")
}

func BenchmarkCarbonCost500(b *testing.B) {
	inst, zs := benchZonedInstance(b, 500, 1, 2)
	s := cawosched.ASAP(inst)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cawosched.CarbonCostZones(inst, s, zs)
	}
}

// benchZonedInstance builds an n-task instance on a small cluster split
// into the given zones, with one rotated-scenario profile per zone over
// factor × the ASAP makespan (one zone: the paper's cluster-wide S1
// profile).
func benchZonedInstance(tb testing.TB, n, zones int, factor int64) (*cawosched.Instance, *cawosched.ZoneSet) {
	tb.Helper()
	wf, err := cawosched.GenerateWorkflow(cawosched.Atacseq, n, 42)
	if err != nil {
		tb.Fatal(err)
	}
	inst, err := cawosched.PlanHEFT(wf, cawosched.SmallZonedCluster(42, zones))
	if err != nil {
		tb.Fatal(err)
	}
	D := cawosched.ASAPMakespan(inst)
	zs, err := cawosched.ZonesForInstance(inst,
		[]cawosched.Scenario{cawosched.S1, cawosched.S2, cawosched.S3, cawosched.S4}, factor*D, 24, 42)
	if err != nil {
		tb.Fatal(err)
	}
	return inst, zs
}

// BenchmarkCarbonCostZones measures the per-zone cost sweep (3 zones), one
// case on each side of the rule that picks the sweep's event
// representation (schedule.sweepNodes): 500 tasks over twice the makespan
// are counted into a difference array, 60 tasks over thirty times the
// makespan are sorted. Compare the first against BenchmarkCarbonCost500,
// the single-zone sweep over the same workflow size.
func BenchmarkCarbonCostZones(b *testing.B) {
	for _, c := range []struct {
		name      string
		n         int
		factor    int64
		wantCount bool
	}{{"500xDF2", 500, 2, true}, {"60xDF30", 60, 30, false}} {
		b.Run(c.name, func(b *testing.B) {
			inst, zs := benchZonedInstance(b, c.n, 3, c.factor)
			// schedule.sweepSlotsPerNode = 16, over a third of the nodes a zone.
			if counted := zs.T() <= 16*int64(inst.N()/3); counted != c.wantCount {
				b.Fatalf("T=%d, %d nodes: on the wrong side of the sweep's rule", zs.T(), inst.N())
			}
			s := cawosched.ASAP(inst)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cawosched.CarbonCostZones(inst, s, zs)
			}
		})
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

// BenchmarkSolveCacheContended measures warmed cache hits under concurrent
// clients spread over several hot keys — the scale-out serving workload —
// all through the solve cache's one lock. contended/op is the share of
// lock acquisitions that found it held; run with -cpu 1,2 or more to see
// it move.
func BenchmarkSolveCacheContended(b *testing.B) {
	const hotKeys = 8
	wf, err := cawosched.GenerateWorkflow(cawosched.Methylseq, 60, 42)
	if err != nil {
		b.Fatal(err)
	}
	solver := cawosched.NewSolver(cawosched.SmallCluster(42))
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

// BenchmarkBuildInstance1000 measures ceg.Build alone on the HEFT mapping
// of a 1000-task workflow over the 3-zone small cluster (the shape of the
// repo benchmark's solve_cold_1k).
func BenchmarkBuildInstance1000(b *testing.B) {
	wf, err := cawosched.GenerateWorkflow(cawosched.Atacseq, 1000, 42)
	if err != nil {
		b.Fatal(err)
	}
	c := cawosched.SmallZonedCluster(42, 3)
	h, err := cawosched.HEFT(wf, c)
	if err != nil {
		b.Fatal(err)
	}
	m := &cawosched.Mapping{Proc: h.Proc, Order: h.Order, Finish: h.Finish}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cawosched.BuildInstance(wf, m, c); err != nil {
			b.Fatal(err)
		}
	}
}

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

// BenchmarkManagerGet measures a status read of a long-finished workflow
// on a tenancy manager whose history holds 500 or 4 000 admissions, and
// reports the mean submission on the same manager as submit-ns. Both
// cost what the live claims and the workflow's own claims cost, so the
// two history lengths should read the same.
func BenchmarkManagerGet(b *testing.B) {
	for _, history := range []int{500, 4000} {
		b.Run(fmt.Sprintf("history=%d", history), func(b *testing.B) {
			cluster := cawosched.SmallZonedCluster(42, 2)
			specs := make([]power.ZoneSpec, 2)
			for z := range specs {
				gmin, gmax := power.PlatformBounds(cluster.ZoneComputeIdle(z), cluster.ZoneComputeWork(z))
				specs[z] = power.ZoneSpec{Name: fmt.Sprint("z", z), Scenario: power.Scenarios()[z], Gmin: gmin, Gmax: gmax}
			}
			supply, err := power.GenerateZones(specs, 480, 24, 42)
			if err != nil {
				b.Fatal(err)
			}
			clock := tenancy.NewSimClock(0)
			m, err := tenancy.NewManager(tenancy.Config{Solver: cawosched.NewSolver(cluster), Supply: supply, Clock: clock})
			if err != nil {
				b.Fatal(err)
			}
			wf, err := cawosched.GenerateWorkflow(cawosched.Bacass, 20, 42)
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			submit := func() {
				clock.Advance(200)
				_, err := m.Submit(ctx, tenancy.SubmitRequest{Workflow: wf, DeadlineFactor: 30})
				if err != nil && !errors.Is(err, cawosched.ErrInfeasibleDeadline) {
					b.Fatal(err)
				}
			}
			for i := 0; i < history; i++ {
				submit()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Get("wf-000001"); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			const submits = 50
			start := time.Now()
			for i := 0; i < submits; i++ {
				submit()
			}
			b.ReportMetric(float64(time.Since(start).Nanoseconds())/submits, "submit-ns")
		})
	}
}
