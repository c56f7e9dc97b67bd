package cawosched_test

import (
	"context"
	"runtime"
	"testing"

	cawosched "repro"
)

// TestSearchWorkersDoNotForkCacheKeys pins the cache-hygiene half of the
// determinism contract: the host's GOMAXPROCS is pure mechanism, so
// requests solved under different settings must share one solve-cache
// entry, with hit/miss accounting identical to repeating the same request
// verbatim. (The solver schedules map-search candidates one after
// another, on the request's goroutine.)
func TestSearchWorkersDoNotForkCacheKeys(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	wf, err := cawosched.GenerateWorkflow(cawosched.Methylseq, 60, 13)
	if err != nil {
		t.Fatal(err)
	}
	solver := cawosched.NewSolver(cawosched.SmallCluster(13))

	first, err := solver.Solve(context.Background(), cawosched.Request{
		Workflow: wf, Variant: "pressWR-LS", Scenario: cawosched.S1, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Fatal("first solve reported a response-cache hit")
	}

	table := []struct {
		name  string
		procs int
	}{
		{"one-worker", 1},
		{"four-workers", 4},
		{"many-workers", 16},
	}
	for _, tc := range table {
		runtime.GOMAXPROCS(tc.procs)
		res, err := solver.Solve(context.Background(), cawosched.Request{Workflow: wf, Variant: "pressWR-LS", Scenario: cawosched.S1, Seed: 13})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !res.CacheHit {
			t.Errorf("%s: missed the cache entry written by the GOMAXPROCS=4 solve", tc.name)
		}
		if res.Cost != first.Cost || res.Deadline != first.Deadline {
			t.Errorf("%s: response differs from first solve: cost %d/%d deadline %d/%d",
				tc.name, res.Cost, first.Cost, res.Deadline, first.Deadline)
		}
	}
	if st := solver.Stats(); st.SolveMisses != 1 || st.SolveHits != int64(len(table)) || st.SolveEntries != 1 {
		t.Errorf("stats = %+v, want 1 miss, %d hits, 1 entry", st, len(table))
	}

	// Same property through the map-search pipeline.
	runtime.GOMAXPROCS(4)
	ms, err := solver.Solve(context.Background(), cawosched.Request{
		Workflow: wf, Variant: "pressWR-LS", Scenario: cawosched.S1, Seed: 13,
		MapSearch: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ms.CacheHit {
		t.Fatal("map-search solve wrongly hit the fixed-mapping cache entry")
	}
	runtime.GOMAXPROCS(1)
	msAgain, err := solver.Solve(context.Background(), cawosched.Request{
		Workflow: wf, Variant: "pressWR-LS", Scenario: cawosched.S1, Seed: 13, MapSearch: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !msAgain.CacheHit {
		t.Error("GOMAXPROCS=1 map-search request missed the GOMAXPROCS=4 map-search entry")
	}
	if msAgain.Cost != ms.Cost || msAgain.Mapping != ms.Mapping {
		t.Errorf("cached map-search response differs: cost %d/%d mapping %q/%q",
			msAgain.Cost, ms.Cost, msAgain.Mapping, ms.Mapping)
	}
	if st := solver.Stats(); st.SolveMisses != 2 || st.SolveEntries != 2 {
		t.Errorf("stats after map-search = %+v, want 2 misses, 2 entries", st)
	}
}
