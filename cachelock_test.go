package cawosched_test

import (
	"context"
	"runtime"
	"sync"
	"testing"

	cawosched "repro"
	"repro/internal/solve"
)

// cacheWorkload is a mixed request sequence with repeats (hits), distinct
// variants/seeds/scenarios (misses), and map-search requests.
func cacheWorkload(t *testing.T) []cawosched.Request {
	t.Helper()
	wfA, err := cawosched.GenerateWorkflow(cawosched.Methylseq, 60, 21)
	if err != nil {
		t.Fatal(err)
	}
	wfB, err := cawosched.GenerateWorkflow(cawosched.Eager, 50, 22)
	if err != nil {
		t.Fatal(err)
	}
	var reqs []cawosched.Request
	for _, wf := range []*cawosched.DAG{wfA, wfB} {
		for _, variant := range []string{"press", "slackW", "pressWR-LS"} {
			for seed := uint64(1); seed <= 3; seed++ {
				reqs = append(reqs, cawosched.Request{Workflow: wf, Variant: variant, Scenario: cawosched.S2, Seed: seed})
			}
		}
		reqs = append(reqs,
			cawosched.Request{Workflow: wf, Variant: "press", Scenario: cawosched.S1, Seed: 10},
			cawosched.Request{Workflow: wf, Variant: "press", Scenario: cawosched.S1, Seed: 9, MapSearch: true},
		)
	}
	// Repeats: every third request again (cache hits), then the whole
	// first half again.
	n := len(reqs)
	for i := 0; i < n; i += 3 {
		reqs = append(reqs, reqs[i])
	}
	reqs = append(reqs, reqs[:n/2]...)
	return reqs
}

type cacheRun struct {
	costs     []int64
	schedules [][]int64
	cacheHits []bool
	stats     cawosched.SolverStats
}

// runCacheWorkload answers reqs on a fresh solver at the given GOMAXPROCS.
func runCacheWorkload(t *testing.T, reqs []cawosched.Request, procs int) cacheRun {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	solver := cawosched.NewSolver(cawosched.SmallCluster(21))
	var run cacheRun
	for i, req := range reqs {
		res, err := solver.Solve(context.Background(), req)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		run.costs = append(run.costs, res.Cost)
		run.schedules = append(run.schedules, append([]int64(nil), res.Schedule.Start...))
		run.cacheHits = append(run.cacheHits, res.CacheHit)
		res.Schedule.Start[0] += 7 // a returned copy the cache shared would show in a later hit
	}
	run.stats = solver.Stats()
	return run
}

// TestCacheDeterminism: responses, cache-hit flags, and every
// hit/miss/entry counter are identical at GOMAXPROCS 1 and 4 — the
// host's parallelism is pure mechanism — and every response a caller
// mutates is its own copy. (The byte-identical wire-level pin lives in
// internal/server's determinism tests.)
func TestCacheDeterminism(t *testing.T) {
	reqs := cacheWorkload(t)
	base := runCacheWorkload(t, reqs, 1)
	got := runCacheWorkload(t, reqs, 4)
	for i := range reqs {
		if got.costs[i] != base.costs[i] {
			t.Errorf("request %d cost %d, want %d", i, got.costs[i], base.costs[i])
		}
		if got.cacheHits[i] != base.cacheHits[i] {
			t.Errorf("request %d cacheHit %v, want %v", i, got.cacheHits[i], base.cacheHits[i])
		}
		for v := range base.schedules[i] {
			if got.schedules[i][v] != base.schedules[i][v] {
				t.Fatalf("request %d schedule diverged at node %d", i, v)
			}
		}
	}
	// Contention counters are workload-order noise. Everything else must
	// match exactly.
	gs, bs := got.stats, base.stats
	gs.PlanContention, bs.PlanContention = 0, 0
	gs.SolveContention, bs.SolveContention = 0, 0
	if gs != bs {
		t.Errorf("stats = %+v, want %+v", gs, bs)
	}
}

// TestCacheBoundConcurrent: the entry bound holds while 8 clients fill
// the cache at once (run under -race in CI), and an immediate repeat hits
// even when the bound is far below the number of keys.
func TestCacheBoundConcurrent(t *testing.T) {
	wf, err := cawosched.GenerateWorkflow(cawosched.Bacass, 40, 8)
	if err != nil {
		t.Fatal(err)
	}
	req := func(seed uint64) cawosched.Request {
		return cawosched.Request{Workflow: wf, Variant: "press", Scenario: cawosched.S1, Seed: seed}
	}

	small := solve.NewSolver(cawosched.SmallCluster(8), solve.WithSolveCacheLimit(4))
	for seed := uint64(0); seed < 20; seed++ {
		if _, err := small.Solve(context.Background(), req(seed)); err != nil {
			t.Fatal(err)
		}
		res, err := small.Solve(context.Background(), req(seed))
		if err != nil {
			t.Fatal(err)
		}
		if !res.CacheHit {
			t.Fatalf("seed %d: immediate repeat missed the 4-entry cache", seed)
		}
	}
	if st := small.Stats(); st.SolveHits != 20 || st.SolveMisses != 20 || st.SolveEntries != 4 {
		t.Errorf("stats = %+v, want 20 hits, 20 misses, 4 entries", st)
	}

	const clients, perClient = 8, 3
	solver := solve.NewSolver(cawosched.SmallCluster(8), solve.WithSolveCacheLimit(8))
	if st := solver.Stats(); st.SolveCapacity != 8 {
		t.Fatalf("stats = %+v, want capacity 8", st)
	}
	costs := make([][2]int64, clients*perClient)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Every client solves its own seeds, then asks for them again:
			// 24 distinct keys, 48 requests.
			for round := 0; round < 2; round++ {
				for i := 0; i < perClient; i++ {
					seed := c + clients*i
					res, err := solver.Solve(context.Background(), req(uint64(seed)))
					if err != nil {
						errs <- err
						return
					}
					costs[seed][round] = res.Cost
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for seed, c := range costs {
		if c[0] != c[1] {
			t.Errorf("seed %d: repeat cost %d, first %d", seed, c[1], c[0])
		}
	}
	st := solver.Stats()
	if st.SolveEntries != 8 {
		t.Errorf("cache holds %d entries, want 8", st.SolveEntries)
	}
	if st.SolveMisses < 24 || st.SolveHits+st.SolveMisses+st.SolveCoalesced != 48 {
		t.Errorf("stats = %+v, want >= 24 misses and 48 requests counted once each", st)
	}
}

// TestPlanCacheLimit: the new plan-memo bound caps memoized plans; 0
// disables memoization entirely (every plan request rebuilds).
func TestPlanCacheLimit(t *testing.T) {
	wfs := make([]*cawosched.DAG, 4)
	for i := range wfs {
		wf, err := cawosched.GenerateWorkflow(cawosched.Eager, 30+5*i, uint64(31+i))
		if err != nil {
			t.Fatal(err)
		}
		wfs[i] = wf
	}
	solver := solve.NewSolver(cawosched.SmallCluster(31), solve.WithPlanCacheLimit(2))
	if st := solver.Stats(); st.PlanCapacity != 2 {
		t.Fatalf("PlanCapacity = %d, want 2", st.PlanCapacity)
	}
	for _, wf := range wfs {
		if _, _, err := solver.Plan(context.Background(), wf); err != nil {
			t.Fatal(err)
		}
	}
	if st := solver.Stats(); st.PlanEntries > 2 {
		t.Errorf("plan memo holds %d entries, want <= 2", st.PlanEntries)
	}

	// The memo keeps what is hot: with room for two, a never-seen plan
	// evicts the least recently used one, not whichever the map yields.
	a, b := wfs[0], wfs[1]
	for round := 0; round < 20; round++ {
		c, err := cawosched.GenerateWorkflow(cawosched.Eager, 30, uint64(100+round))
		if err != nil {
			t.Fatal(err)
		}
		for i, wf := range []*cawosched.DAG{a, b, a, c, a} {
			_, hit, err := solver.Plan(context.Background(), wf)
			if err != nil {
				t.Fatal(err)
			}
			if i >= 2 && hit != (wf == a) {
				t.Fatalf("round %d step %d: plan hit = %v, want hits on the hot workflow only", round, i, hit)
			}
		}
	}

	// One entry: every new plan evicts the last, and only the last hits.
	one := solve.NewSolver(cawosched.SmallCluster(31), solve.WithPlanCacheLimit(1))
	for _, wf := range wfs {
		if _, _, err := one.Plan(context.Background(), wf); err != nil {
			t.Fatal(err)
		}
	}
	if st := one.Stats(); st.PlanEntries != 1 || st.PlanCapacity != 1 {
		t.Errorf("limit 1: %+v, want 1 entry, capacity 1", st)
	}
	for i, wf := range []*cawosched.DAG{wfs[3], wfs[0], wfs[0], wfs[3]} {
		_, hit, err := one.Plan(context.Background(), wf)
		if err != nil {
			t.Fatal(err)
		}
		if want := i == 0 || i == 2; hit != want {
			t.Errorf("limit 1, step %d: plan hit = %v, want %v", i, hit, want)
		}
	}

	// Disabled memo: repeated plans are all misses, nothing retained.
	off := solve.NewSolver(cawosched.SmallCluster(31), solve.WithPlanCacheLimit(0))
	for i := 0; i < 2; i++ {
		if _, hit, err := off.Plan(context.Background(), wfs[0]); err != nil {
			t.Fatal(err)
		} else if hit {
			t.Error("disabled plan memo reported a hit")
		}
	}
	if st := off.Stats(); st.PlanEntries != 0 || st.PlanMisses != 2 || st.PlanCapacity != 0 {
		t.Errorf("disabled memo stats = %+v, want 0 entries, 2 misses", st)
	}
}
