package cawosched_test

import (
	"context"
	"reflect"
	"testing"

	cawosched "repro"
	"repro/internal/solve"
)

// TestSolveResponseCache is the acceptance property of the second cache
// level: a repeated identical request is served from the solve-response
// cache (hit counter increments, CacheHit set) with an identical result,
// and the returned schedule is a private copy the caller may mutate.
func TestSolveResponseCache(t *testing.T) {
	wf, err := cawosched.GenerateWorkflow(cawosched.Methylseq, 60, 11)
	if err != nil {
		t.Fatal(err)
	}
	solver := cawosched.NewSolver(cawosched.SmallCluster(11))
	req := cawosched.Request{Workflow: wf, Variant: "pressWR-LS", Scenario: cawosched.S1, Seed: 11}

	first, err := solver.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Error("first solve reported a response-cache hit")
	}
	second, err := solver.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Error("identical request missed the solve-response cache")
	}
	if !second.PlanHit {
		t.Error("cache hit did not also report the plan hit")
	}
	if second.Cost != first.Cost || second.ASAPCost != first.ASAPCost || second.Deadline != first.Deadline {
		t.Errorf("cached response differs: cost %d/%d asap %d/%d deadline %d/%d",
			first.Cost, second.Cost, first.ASAPCost, second.ASAPCost, first.Deadline, second.Deadline)
	}
	for v := range first.Schedule.Start {
		if first.Schedule.Start[v] != second.Schedule.Start[v] {
			t.Fatalf("cached schedule moved node %d: %d → %d", v, first.Schedule.Start[v], second.Schedule.Start[v])
		}
	}
	st := solver.Stats()
	if st.SolveHits != 1 || st.SolveMisses != 1 {
		t.Errorf("stats = %+v, want 1 solve hit, 1 solve miss", st)
	}
	if st.SolveEntries != 1 {
		t.Errorf("cache holds %d entries, want 1", st.SolveEntries)
	}

	// Mutating a returned schedule must not poison the cache.
	second.Schedule.Start[0] += 1_000_000
	third, err := solver.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !third.CacheHit {
		t.Error("third request missed")
	}
	if third.Schedule.Start[0] != first.Schedule.Start[0] {
		t.Error("caller mutation leaked into the cached schedule")
	}
}

// TestSolveResponseCacheKeying: different variants, profiles (seed or
// scenario), deadlines, greedy flavors, and tuning parameters must key
// separately; Options with explicit paper defaults must key like the
// implicit defaults.
func TestSolveResponseCacheKeying(t *testing.T) {
	wf, err := cawosched.GenerateWorkflow(cawosched.Bacass, 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	solver := cawosched.NewSolver(cawosched.SmallCluster(3))
	base := cawosched.Request{Workflow: wf, Variant: "press", Scenario: cawosched.S1, Seed: 3}
	if _, err := solver.Solve(context.Background(), base); err != nil {
		t.Fatal(err)
	}

	distinct := []cawosched.Request{
		{Workflow: wf, Variant: "slack", Scenario: cawosched.S1, Seed: 3},
		{Workflow: wf, Variant: "press", Scenario: cawosched.S2, Seed: 3},
		{Workflow: wf, Variant: "press", Scenario: cawosched.S1, Seed: 4},
		{Workflow: wf, Variant: "press", Scenario: cawosched.S1, Seed: 3, DeadlineFactor: 3},
		{Workflow: wf, Variant: "pressR", Scenario: cawosched.S1, Seed: 3},
		{Workflow: wf, Options: &cawosched.Options{Score: cawosched.ScorePressure, Mu: 20, LocalSearch: true}, Scenario: cawosched.S1, Seed: 3},
	}
	for i, req := range distinct {
		res, err := solver.Solve(context.Background(), req)
		if err != nil {
			t.Fatalf("distinct request %d: %v", i, err)
		}
		if res.CacheHit {
			t.Errorf("distinct request %d wrongly hit the cache", i)
		}
	}

	// Explicit defaults key like implicit ones: press == Options{pressure, K=3, Mu=10}.
	explicit := cawosched.Request{
		Workflow: wf,
		Options:  &cawosched.Options{Score: cawosched.ScorePressure, K: 3, Mu: 10},
		Scenario: cawosched.S1, Seed: 3,
	}
	res, err := solver.Solve(context.Background(), explicit)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Error("explicit paper defaults missed the cache entry of the implicit defaults")
	}
}

// TestSolverPlanOrderIndependence pins the shared-cluster determinism the
// service depends on: the result for a workflow must not depend on which
// other workflows were planned on the same cluster first — neither its
// costs nor the processor ids of its nodes, communications included, which
// go on the wire.
func TestSolverPlanOrderIndependence(t *testing.T) {
	wfA, err := cawosched.GenerateWorkflow(cawosched.Methylseq, 80, 1)
	if err != nil {
		t.Fatal(err)
	}
	wfB, err := cawosched.GenerateWorkflow(cawosched.Eager, 70, 2)
	if err != nil {
		t.Fatal(err)
	}
	solve := func(s *cawosched.Solver, wf *cawosched.DAG) *cawosched.Response {
		t.Helper()
		res, err := s.Solve(context.Background(), cawosched.Request{Workflow: wf, Variant: "pressWR-LS", Scenario: cawosched.S2, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	ab := cawosched.NewSolver(cawosched.SmallCluster(6))
	aFirst := solve(ab, wfA)
	bSecond := solve(ab, wfB)

	ba := cawosched.NewSolver(cawosched.SmallCluster(6))
	bFirst := solve(ba, wfB)
	aSecond := solve(ba, wfA)

	if aFirst.Cost != aSecond.Cost || aFirst.ASAPCost != aSecond.ASAPCost || aFirst.Deadline != aSecond.Deadline {
		t.Errorf("wfA result depends on plan order: cost %d/%d asap %d/%d deadline %d/%d",
			aFirst.Cost, aSecond.Cost, aFirst.ASAPCost, aSecond.ASAPCost, aFirst.Deadline, aSecond.Deadline)
	}
	if bFirst.Cost != bSecond.Cost || bFirst.ASAPCost != bSecond.ASAPCost || bFirst.Deadline != bSecond.Deadline {
		t.Errorf("wfB result depends on plan order: cost %d/%d", bFirst.Cost, bSecond.Cost)
	}
	if !aFirst.Zones.EqualZoneSet(aSecond.Zones) {
		t.Error("wfA generated supply depends on plan order")
	}
	if !reflect.DeepEqual(aFirst.Instance.Proc, aSecond.Instance.Proc) || !reflect.DeepEqual(bFirst.Instance.Proc, bSecond.Instance.Proc) {
		t.Error("processor assignment depends on plan order")
	}
}

// TestSolveResponseCacheEviction pins the LRU bound: with a limit of 2,
// the least-recently-used entry is evicted, recently-touched entries stay.
func TestSolveResponseCacheEviction(t *testing.T) {
	wf, err := cawosched.GenerateWorkflow(cawosched.Eager, 40, 5)
	if err != nil {
		t.Fatal(err)
	}
	solver := solve.NewSolver(cawosched.SmallCluster(5), solve.WithSolveCacheLimit(2))
	reqFor := func(variant string) cawosched.Request {
		return cawosched.Request{Workflow: wf, Variant: variant, Scenario: cawosched.S4, Seed: 5}
	}

	must := func(variant string) *cawosched.Response {
		t.Helper()
		res, err := solver.Solve(context.Background(), reqFor(variant))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	must("slack") // cache: [slack]
	must("press") // cache: [press slack]
	if !must("slack").CacheHit {
		t.Error("slack evicted while cache not full")
	} // cache: [slack press]
	must("slackW") // evicts press → [slackW slack]
	if st := solver.Stats(); st.SolveEntries != 2 {
		t.Errorf("cache holds %d entries, want 2", st.SolveEntries)
	}
	if must("press").CacheHit {
		t.Error("press survived eviction beyond the limit")
	}
	if !must("slackW").CacheHit {
		t.Error("recently inserted slackW was evicted")
	}

	solver.ResetSolveCache()
	if st := solver.Stats(); st.SolveEntries != 0 {
		t.Errorf("reset left %d entries", st.SolveEntries)
	}
	if must("slackW").CacheHit {
		t.Error("hit after ResetSolveCache")
	}

	solver = solve.NewSolver(cawosched.SmallCluster(5), solve.WithSolveCacheLimit(0)) // disabled
	must("press")
	if must("press").CacheHit {
		t.Error("disabled cache returned a hit")
	}
	if st := solver.Stats(); st.SolveEntries != 0 || st.SolveCapacity != 0 {
		t.Errorf("disabled cache stats = %+v, want 0 entries, capacity 0", st)
	}
}
