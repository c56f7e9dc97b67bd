package cawosched_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	cawosched "repro"
	"repro/internal/obs"
)

// TestSolverPlanCache is the memoization acceptance property: a repeated
// Solve for the same workflow fingerprint must skip HEFT re-planning,
// observable through the solver's cache-hit counter and the response's
// PlanHit flag.
func TestSolverPlanCache(t *testing.T) {
	wf, err := cawosched.GenerateWorkflow(cawosched.Bacass, 50, 9)
	if err != nil {
		t.Fatal(err)
	}
	solver := cawosched.NewSolver(cawosched.SmallCluster(9))
	req := cawosched.Request{Workflow: wf, Variant: "press", Seed: 9}

	first, err := solver.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if first.PlanHit {
		t.Error("first solve reported a plan cache hit")
	}
	second, err := solver.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.PlanHit {
		t.Error("second solve re-planned instead of hitting the cache")
	}
	if first.Instance != second.Instance {
		t.Error("cache hit returned a different instance pointer")
	}
	if st := solver.Stats(); st.PlanHits != 1 || st.PlanMisses != 1 || st.Solves != 2 {
		t.Errorf("stats = %+v, want 1 hit, 1 miss, 2 solves", st)
	}

	// A structurally different workflow must miss.
	wf2, err := cawosched.GenerateWorkflow(cawosched.Bacass, 50, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := solver.Solve(context.Background(), cawosched.Request{Workflow: wf2, Variant: "press", Seed: 9}); err != nil {
		t.Fatal(err)
	}
	if st := solver.Stats(); st.PlanMisses != 2 {
		t.Errorf("different workflow did not miss: %+v", st)
	}
}

// TestSolverConcurrent shares one solver across many goroutines spanning
// variants and seeds (run with -race in CI, -count=2 to reuse warm state):
// every response must be internally consistent, and identical requests
// must produce identical costs regardless of interleaving.
func TestSolverConcurrent(t *testing.T) {
	wf, err := cawosched.GenerateWorkflow(cawosched.Eager, 60, 4)
	if err != nil {
		t.Fatal(err)
	}
	solver := cawosched.NewSolver(cawosched.SmallCluster(4))
	variants := []string{"slack", "slackWR-LS", "press", "pressWR-LS"}
	seeds := []uint64{1, 2}
	const replicas = 3 // identical requests racing each other

	type key struct {
		variant string
		seed    uint64
	}
	var mu sync.Mutex
	costs := map[key][]int64{}
	var wg sync.WaitGroup
	errCh := make(chan error, len(variants)*len(seeds)*replicas)
	for _, v := range variants {
		for _, seed := range seeds {
			for r := 0; r < replicas; r++ {
				wg.Add(1)
				go func(v string, seed uint64) {
					defer wg.Done()
					res, err := solver.Solve(context.Background(), cawosched.Request{
						Workflow: wf, Variant: v, Scenario: cawosched.S3, Seed: seed,
					})
					if err != nil {
						errCh <- err
						return
					}
					if err := cawosched.Validate(res.Instance, res.Schedule, res.Deadline); err != nil {
						errCh <- err
						return
					}
					mu.Lock()
					costs[key{v, seed}] = append(costs[key{v, seed}], res.Cost)
					mu.Unlock()
				}(v, seed)
			}
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	for k, cs := range costs {
		for _, c := range cs[1:] {
			if c != cs[0] {
				t.Errorf("%v: racing identical requests disagreed: %v", k, cs)
				break
			}
		}
	}
	// All goroutines shared one plan: exactly one miss.
	if st := solver.Stats(); st.PlanMisses != 1 {
		t.Errorf("plan built %d times under concurrency, want 1", st.PlanMisses)
	}
}

// TestSolverCancellation is the cancellation acceptance property: a
// canceled context aborts Solve promptly with an error satisfying both
// errors.Is(err, context.Canceled) and errors.Is(err, ErrCanceled).
func TestSolverCancellation(t *testing.T) {
	wf, err := cawosched.GenerateWorkflow(cawosched.Methylseq, 400, 5)
	if err != nil {
		t.Fatal(err)
	}
	solver := cawosched.NewSolver(cawosched.SmallCluster(5))

	// Pre-canceled context: immediate, deterministic.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := solver.Solve(ctx, cawosched.Request{Workflow: wf}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled Solve: err = %v, want context.Canceled", err)
	} else if !errors.Is(err, cawosched.ErrCanceled) {
		t.Fatalf("pre-canceled Solve: err = %v, want ErrCanceled too", err)
	}

	// Mid-solve cancellation: cancel while the greedy/local search runs.
	// The hot loops poll every few hundred steps, so the call must return
	// well before the uncanceled runtime of a 400-task LS solve.
	ctx2, cancel2 := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel2()
	}()
	start := time.Now()
	_, err = solver.Solve(ctx2, cawosched.Request{Workflow: wf, Variant: "pressWR-LS", Seed: 5})
	if err != nil {
		if !errors.Is(err, context.Canceled) || !errors.Is(err, cawosched.ErrCanceled) {
			t.Fatalf("mid-solve cancel: err = %v, want Canceled chain", err)
		}
		var ce *cawosched.CanceledError
		if !errors.As(err, &ce) || ce.Cause == nil {
			t.Fatalf("mid-solve cancel: err = %#v, want *CanceledError with cause", err)
		}
		if took := time.Since(start); took > 10*time.Second {
			t.Errorf("cancellation took %s, want prompt return", took)
		}
	}
	// err == nil means the solve beat the 2ms cancel — acceptable on a
	// fast machine; the pre-canceled case above already pins the behavior.
}

// TestTypedErrors exercises errors.Is and errors.As for every structured
// error of the new API surface.
func TestTypedErrors(t *testing.T) {
	wf, err := cawosched.GenerateWorkflow(cawosched.Bacass, 40, 2)
	if err != nil {
		t.Fatal(err)
	}
	cluster := cawosched.SmallCluster(2)
	inst, err := cawosched.PlanHEFT(wf, cluster)
	if err != nil {
		t.Fatal(err)
	}
	D := cawosched.ASAPMakespan(inst)

	t.Run("infeasible deadline", func(t *testing.T) {
		zs := cawosched.SingleZone(cawosched.ConstantProfile(D/2, 1)) // horizon below the ASAP makespan
		_, _, err := cawosched.RunZonesContext(context.Background(), inst, zs, cawosched.Options{})
		if !errors.Is(err, cawosched.ErrInfeasibleDeadline) {
			t.Fatalf("err = %v, want ErrInfeasibleDeadline", err)
		}
		var ie *cawosched.InfeasibleDeadlineError
		if !errors.As(err, &ie) || ie.Deadline != D/2 || ie.EST <= ie.LST {
			t.Fatalf("err = %#v, want *InfeasibleDeadlineError with empty window at T=%d", err, D/2)
		}
	})

	t.Run("budget exhausted", func(t *testing.T) {
		// A 5-task unit chain on one processor: the first DFS leaf is
		// found within the budget but the search space is not covered.
		const n = 5
		d := cawosched.NewWorkflow(n)
		order := make([]int, n)
		finish := make([]int64, n)
		for i := 0; i < n; i++ {
			order[i] = i
			finish[i] = int64(i + 1)
			if i > 0 {
				d.AddEdge(i-1, i, 1)
			}
		}
		uni := cawosched.NewCluster([]cawosched.ProcType{{Name: "U", Speed: 1, Idle: 0, Work: 1}}, []int{1}, 1)
		ti, err := cawosched.BuildInstance(d, &cawosched.Mapping{Proc: make([]int, n), Order: [][]int{order}, Finish: finish}, uni)
		if err != nil {
			t.Fatal(err)
		}
		zs := cawosched.SingleZone(cawosched.ConstantProfile(40, 0))
		_, _, err = cawosched.OptimalScheduleContext(context.Background(), ti, zs, 10)
		if !errors.Is(err, cawosched.ErrBudgetExhausted) {
			t.Fatalf("err = %v, want ErrBudgetExhausted", err)
		}
		var be *cawosched.BudgetError
		if !errors.As(err, &be) || be.Nodes <= 0 {
			t.Fatalf("err = %#v, want *BudgetError with node count", err)
		}
	})

	t.Run("canceled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		zs := cawosched.SingleZone(cawosched.ConstantProfile(2*D, 1))
		_, _, err := cawosched.RunZonesContext(ctx, inst, zs, cawosched.Options{})
		if !errors.Is(err, cawosched.ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want ErrCanceled and context.Canceled", err)
		}
		var ce *cawosched.CanceledError
		if !errors.As(err, &ce) || !errors.Is(ce.Cause, context.Canceled) {
			t.Fatalf("err = %#v, want *CanceledError wrapping context.Canceled", err)
		}
	})

	t.Run("deadline exceeded maps to canceled", func(t *testing.T) {
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		defer cancel()
		zs := cawosched.SingleZone(cawosched.ConstantProfile(2*D, 1))
		_, _, err := cawosched.RunZonesContext(ctx, inst, zs, cawosched.Options{})
		if !errors.Is(err, cawosched.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want ErrCanceled and context.DeadlineExceeded", err)
		}
	})

	t.Run("unknown variant", func(t *testing.T) {
		_, err := cawosched.LookupVariant("pressZR-LS")
		if !errors.Is(err, cawosched.ErrUnknownVariant) {
			t.Fatalf("err = %v, want ErrUnknownVariant", err)
		}
		var ue *cawosched.UnknownVariantError
		if !errors.As(err, &ue) || ue.Name != "pressZR-LS" || len(ue.Known) != 16 {
			t.Fatalf("err = %#v, want *UnknownVariantError listing 16 names", err)
		}
		solver := cawosched.NewSolver(cluster)
		if _, err := solver.Solve(context.Background(), cawosched.Request{Workflow: wf, Variant: "nope"}); !errors.Is(err, cawosched.ErrUnknownVariant) {
			t.Fatalf("Solve with unknown variant: err = %v", err)
		}
	})
}

// TestSolverRegistryAndDefaults pins the registry surface: 16 canonical
// names, case-insensitive lookup, and the solver default variant.
func TestSolverRegistryAndDefaults(t *testing.T) {
	names := cawosched.VariantNames()
	if len(names) != 16 {
		t.Fatalf("registry has %d names, want 16", len(names))
	}
	seen := map[string]bool{}
	for _, name := range names {
		if seen[name] {
			t.Fatalf("duplicate registry name %s", name)
		}
		seen[name] = true
		opt, err := cawosched.LookupVariant(name)
		if err != nil || opt.Name() != name {
			t.Fatalf("LookupVariant(%q) = %v, %v", name, opt.Name(), err)
		}
	}
	if !seen["slack"] || !seen["pressWR-LS"] {
		t.Error("canonical paper names missing from registry")
	}
	if opt, err := cawosched.LookupVariant("PRESSWR-ls"); err != nil || opt.Name() != "pressWR-LS" {
		t.Errorf("case-insensitive lookup failed: %v, %v", opt.Name(), err)
	}

	wf, err := cawosched.GenerateWorkflow(cawosched.Bacass, 40, 3)
	if err != nil {
		t.Fatal(err)
	}
	solver := cawosched.NewSolver(cawosched.SmallCluster(3))
	res, err := solver.Solve(context.Background(), cawosched.Request{Workflow: wf, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Variant != cawosched.DefaultVariant {
		t.Errorf("default variant = %s, want %s", res.Variant, cawosched.DefaultVariant)
	}
	if res.Cost != res.Stats.Cost {
		t.Error("Response.Cost diverges from Stats.Cost")
	}
	if res.Deadline != res.Zones.T() {
		t.Error("Response.Deadline diverges from the supply horizon")
	}
}

// TestSolverStagesCompose drives the Plan / ZonesFor / Solve stages
// individually, as a service precomputing shared state would.
func TestSolverStagesCompose(t *testing.T) {
	ctx := context.Background()
	wf, err := cawosched.GenerateWorkflow(cawosched.Atacseq, 45, 6)
	if err != nil {
		t.Fatal(err)
	}
	solver := cawosched.NewSolver(cawosched.SmallCluster(6))
	inst, hit, err := solver.Plan(ctx, wf)
	if err != nil || hit {
		t.Fatalf("Plan: hit=%v err=%v", hit, err)
	}
	req := cawosched.Request{Scenario: cawosched.S2, DeadlineFactor: 1.5, Intervals: 12, Seed: 6}
	zs, err := solver.ZonesFor(ctx, inst, req)
	if err != nil {
		t.Fatal(err)
	}
	if !zs.Single() || zs.Profile(0).J() != 12 {
		t.Errorf("supply has %d zones, zone 0 %d intervals; want 1 zone of 12", zs.NumZones(), zs.Profile(0).J())
	}
	req.Instance = inst
	req.Zones = zs
	req.Variant = "slackR"
	res, err := solver.Solve(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Zones != zs || res.Instance != inst {
		t.Error("Solve did not reuse the precomputed stages")
	}
}

// TestSolveTracedAllocs bounds the allocations of a traced solve of a
// prebuilt 60-task, 3-zone instance at deadline factor 2 under a tracer
// and a metrics registry, the way the server runs one. The scheduler's
// phases are traced from their Stats after the run (internal/solve), so
// tracing them costs a few spans and their attributes, not a context per
// phase. Measured on linux/amd64 with go1.24: 188 allocs traced and 125
// untraced, and 192–194 traced under the race detector, where sync.Pool
// drops some of the solve scratch it is handed. Before that scratch was
// pooled it measured 206 traced and 143 untraced, and before core and
// greenheft stopped opening the phase spans themselves, 208 traced.
func TestSolveTracedAllocs(t *testing.T) {
	const ceiling = 200
	inst, zs := benchZonedInstance(t, 60, 3, 2)
	solver := cawosched.NewSolver(inst.Cluster)
	req := cawosched.Request{Instance: inst, Zones: zs}
	ctx := obs.WithTracer(obs.WithMeter(context.Background(), obs.NewRegistry()), obs.NewTracer(obs.DefaultTraceBuffer))
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := solver.Solve(ctx, req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > ceiling {
		t.Errorf("a traced prebuilt solve allocates %.0f times, want at most %d", allocs, ceiling)
	}
}
