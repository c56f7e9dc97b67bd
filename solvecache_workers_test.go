package cawosched_test

import (
	"context"
	"testing"

	cawosched "repro"
)

// TestSearchWorkersDoNotForkCacheKeys pins the cache-hygiene half of the
// fan-out contract: Request.SearchWorkers is pure mechanism, so requests
// that differ only in it must share one solve-cache entry, with hit/miss
// accounting identical to repeating the same request verbatim.
func TestSearchWorkersDoNotForkCacheKeys(t *testing.T) {
	wf, err := cawosched.GenerateWorkflow(cawosched.Methylseq, 60, 13)
	if err != nil {
		t.Fatal(err)
	}
	solver := cawosched.NewSolver(cawosched.SmallCluster(13))

	first, err := solver.Solve(context.Background(), cawosched.Request{
		Workflow: wf, Variant: "pressWR-LS", Scenario: cawosched.S1, Seed: 13, SearchWorkers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Fatal("first solve reported a response-cache hit")
	}

	table := []struct {
		name string
		req  cawosched.Request
	}{
		{"sequential", cawosched.Request{Workflow: wf, Variant: "pressWR-LS", Scenario: cawosched.S1, Seed: 13}},
		{"one-worker", cawosched.Request{Workflow: wf, Variant: "pressWR-LS", Scenario: cawosched.S1, Seed: 13, SearchWorkers: 1}},
		{"many-workers", cawosched.Request{Workflow: wf, Variant: "pressWR-LS", Scenario: cawosched.S1, Seed: 13, SearchWorkers: 16}},
	}
	for _, tc := range table {
		res, err := solver.Solve(context.Background(), tc.req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !res.CacheHit {
			t.Errorf("%s: missed the cache entry written by the workers=4 solve", tc.name)
		}
		if res.Cost != first.Cost || res.Deadline != first.Deadline {
			t.Errorf("%s: response differs from first solve: cost %d/%d deadline %d/%d",
				tc.name, res.Cost, first.Cost, res.Deadline, first.Deadline)
		}
	}
	if st := solver.Stats(); st.SolveMisses != 1 || st.SolveHits != int64(len(table)) || st.SolveEntries != 1 {
		t.Errorf("stats = %+v, want 1 miss, %d hits, 1 entry", st, len(table))
	}

	// Same property through the map-search pipeline, the one place the
	// setting changes what runs.
	ms, err := solver.Solve(context.Background(), cawosched.Request{
		Workflow: wf, Variant: "pressWR-LS", Scenario: cawosched.S1, Seed: 13,
		MapSearch: true, SearchWorkers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ms.CacheHit {
		t.Fatal("map-search solve wrongly hit the fixed-mapping cache entry")
	}
	msAgain, err := solver.Solve(context.Background(), cawosched.Request{
		Workflow: wf, Variant: "pressWR-LS", Scenario: cawosched.S1, Seed: 13, MapSearch: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !msAgain.CacheHit {
		t.Error("sequential map-search request missed the workers=4 map-search entry")
	}
	if msAgain.Cost != ms.Cost || msAgain.Mapping != ms.Mapping {
		t.Errorf("cached map-search response differs: cost %d/%d mapping %q/%q",
			msAgain.Cost, ms.Cost, msAgain.Mapping, ms.Mapping)
	}
	if st := solver.Stats(); st.SolveMisses != 2 || st.SolveEntries != 2 {
		t.Errorf("stats after map-search = %+v, want 2 misses, 2 entries", st)
	}
}
