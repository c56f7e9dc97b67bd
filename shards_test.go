package cawosched_test

import (
	"context"
	"fmt"
	"testing"

	cawosched "repro"
)

// shardWorkload is a mixed request sequence with repeats (hits), distinct
// variants/seeds/scenarios (misses), marginal and map-search requests —
// enough key diversity to spread across 16 shards.
func shardWorkload(t *testing.T) []cawosched.Request {
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
			cawosched.Request{Workflow: wf, Variant: "press", Scenario: cawosched.S1, Seed: 9, Marginal: true},
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

type shardRun struct {
	costs     []int64
	schedules [][]int64
	cacheHits []bool
	stats     cawosched.SolverStats
}

func runShardWorkload(t *testing.T, reqs []cawosched.Request, workers int, opts ...cawosched.SolverOption) shardRun {
	t.Helper()
	solver := cawosched.NewSolver(cawosched.SmallCluster(21), opts...)
	var run shardRun
	for i, req := range reqs {
		req.SearchWorkers = workers
		res, err := solver.Solve(context.Background(), req)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		run.costs = append(run.costs, res.Cost)
		run.schedules = append(run.schedules, append([]int64(nil), res.Schedule.Start...))
		run.cacheHits = append(run.cacheHits, res.CacheHit)
		res.Schedule.Start[0] += 7 // returned copies must be private at every shard count
	}
	run.stats = solver.Stats()
	return run
}

// TestCacheShardingDeterminism is the sharding acceptance pin: responses,
// cache-hit flags, and every hit/miss/entry counter are identical across
// shard counts {1, 4, 16} and search-worker settings — sharding and worker
// pools are pure mechanism. (The byte-identical wire-level pin lives in
// internal/server's determinism tests.)
func TestCacheShardingDeterminism(t *testing.T) {
	reqs := shardWorkload(t)
	base := runShardWorkload(t, reqs, 0, cawosched.WithCacheShards(1))
	for _, shards := range []int{4, 16} {
		for _, workers := range []int{0, 4} {
			name := fmt.Sprintf("shards=%d/workers=%d", shards, workers)
			got := runShardWorkload(t, reqs, workers, cawosched.WithCacheShards(shards))
			for i := range reqs {
				if got.costs[i] != base.costs[i] {
					t.Errorf("%s: request %d cost %d, want %d", name, i, got.costs[i], base.costs[i])
				}
				if got.cacheHits[i] != base.cacheHits[i] {
					t.Errorf("%s: request %d cacheHit %v, want %v", name, i, got.cacheHits[i], base.cacheHits[i])
				}
				for v := range base.schedules[i] {
					if got.schedules[i][v] != base.schedules[i][v] {
						t.Fatalf("%s: request %d schedule diverged at node %d", name, i, v)
					}
				}
			}
			// Contention counters are workload-order noise; shard count is
			// config. Everything else must match exactly.
			gs, bs := got.stats, base.stats
			gs.CacheShards, bs.CacheShards = 0, 0
			gs.PlanContention, bs.PlanContention = 0, 0
			gs.SolveContention, bs.SolveContention = 0, 0
			if gs != bs {
				t.Errorf("%s: stats = %+v, want %+v", name, gs, bs)
			}
		}
	}
}

// TestShardedCacheBound: the total entry bound holds across shards (the
// per-shard shares sum to the limit), even though which victim a full
// cache evicts first is per-shard recency.
func TestShardedCacheBound(t *testing.T) {
	wf, err := cawosched.GenerateWorkflow(cawosched.Bacass, 40, 8)
	if err != nil {
		t.Fatal(err)
	}
	solver := cawosched.NewSolver(cawosched.SmallCluster(8), cawosched.WithCacheShards(4), cawosched.WithSolveCacheLimit(8))
	if st := solver.Stats(); st.SolveCapacity != 8 || st.CacheShards != 4 {
		t.Fatalf("stats = %+v, want capacity 8 over 4 shards", st)
	}
	for seed := uint64(0); seed < 24; seed++ {
		req := cawosched.Request{Workflow: wf, Variant: "press", Scenario: cawosched.S1, Seed: seed}
		if _, err := solver.Solve(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	st := solver.Stats()
	if st.SolveEntries > 8 {
		t.Errorf("cache holds %d entries, want <= 8", st.SolveEntries)
	}
	if st.SolveEntries == 0 {
		t.Error("cache empty after 24 inserts")
	}
	if st.SolveMisses != 24 {
		t.Errorf("stats = %+v, want 24 misses", st)
	}
}

// TestShardCountAboveLimit is the zero-capacity-shard regression pin.
// With more shards than the entry limit, the per-shard split used to give most
// shards capacity 0, so any key routed to one of them was silently never
// cached — a repeat solve of the same request missed forever. The fix
// clamps key routing to an effective power-of-two shard count bounded by
// the limit: with limit 4 every key must be cacheable at any shard
// count, and shards=16 must behave exactly like shards=4.
func TestShardCountAboveLimit(t *testing.T) {
	wf, err := cawosched.GenerateWorkflow(cawosched.Bacass, 40, 12)
	if err != nil {
		t.Fatal(err)
	}
	solver := cawosched.NewSolver(cawosched.SmallCluster(12),
		cawosched.WithCacheShards(16), cawosched.WithSolveCacheLimit(4))
	// Back-to-back repeats of many distinct keys: each second solve must
	// hit, whichever shard its key routes to.
	for seed := uint64(0); seed < 20; seed++ {
		req := cawosched.Request{Workflow: wf, Variant: "press", Scenario: cawosched.S1, Seed: seed}
		if _, err := solver.Solve(context.Background(), req); err != nil {
			t.Fatal(err)
		}
		res, err := solver.Solve(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if !res.CacheHit {
			t.Fatalf("seed %d: immediate repeat missed the 4-entry cache at 16 shards", seed)
		}
	}
	if st := solver.Stats(); st.SolveHits != 20 || st.SolveMisses != 20 || st.SolveEntries > 4 {
		t.Errorf("stats = %+v, want 20 hits, 20 misses, <= 4 entries", st)
	}

	// Behavioral equivalence: at limit 4, a 16-shard solver routes keys
	// exactly like a 4-shard one, so a mixed workload produces identical
	// responses, hit flags, and cache counters.
	reqs := shardWorkload(t)
	limits := []cawosched.SolverOption{cawosched.WithSolveCacheLimit(4), cawosched.WithPlanCacheLimit(4)}
	base := runShardWorkload(t, reqs, 0, append([]cawosched.SolverOption{cawosched.WithCacheShards(4)}, limits...)...)
	got := runShardWorkload(t, reqs, 0, append([]cawosched.SolverOption{cawosched.WithCacheShards(16)}, limits...)...)
	for i := range reqs {
		if got.costs[i] != base.costs[i] || got.cacheHits[i] != base.cacheHits[i] {
			t.Errorf("request %d: cost/hit %d/%v, want %d/%v",
				i, got.costs[i], got.cacheHits[i], base.costs[i], base.cacheHits[i])
		}
	}
	gs, bs := got.stats, base.stats
	gs.CacheShards, bs.CacheShards = 0, 0
	gs.PlanContention, bs.PlanContention = 0, 0
	gs.SolveContention, bs.SolveContention = 0, 0
	if gs != bs {
		t.Errorf("stats = %+v, want %+v (16 shards at limit 4 must equal 4 shards)", gs, bs)
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
	solver := cawosched.NewSolver(cawosched.SmallCluster(31), cawosched.WithCacheShards(1), cawosched.WithPlanCacheLimit(2))
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

	// Shrinking an over-full memo evicts down to the new bound.
	solver.SetPlanCacheLimit(1)
	if st := solver.Stats(); st.PlanEntries > 1 || st.PlanCapacity != 1 {
		t.Errorf("after shrink: %+v, want <= 1 entry, capacity 1", solver.Stats())
	}

	// Disabled memo: repeated plans are all misses, nothing retained.
	off := cawosched.NewSolver(cawosched.SmallCluster(31), cawosched.WithPlanCacheLimit(0))
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
