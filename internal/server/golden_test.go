package server

import (
	"bytes"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"testing"

	cawosched "repro"
	"repro/internal/wire"
)

// goldenDigests pins the wire bytes of POST /v1/solve across commits: the
// FNV-1a digest of each response body (timings stripped) for a fixed
// roster of workflow family × cluster × solve mode. The determinism tests
// compare search-worker counts within one build; this table is the
// only thing that compares one build with the next, so a refactor that
// claims bit-identical output must leave it untouched. A failure prints
// the digest it got; only a change that means to alter schedules, costs or
// the wire format may paste that in.
var goldenDigests = map[string]uint64{
	"atacseq/small/slack":         0xbd25a972966a6fa3,
	"atacseq/small/pressWR-LS":    0x8e78a7d1402f47b4,
	"atacseq/small/map-search":    0x8e78a7d1402f47b4,
	"atacseq/zoned3/slack":        0x36a23064128e1db5,
	"atacseq/zoned3/pressWR-LS":   0x63a63fb74e725903,
	"atacseq/zoned3/map-search":   0x651b5baa87db1470,
	"bacass/small/slack":          0x3dea37a7a6278fca,
	"bacass/small/pressWR-LS":     0x10c72879d0c01eb0,
	"bacass/small/map-search":     0x83b940f8ed972b45,
	"bacass/zoned3/slack":         0x99f13e0cb33c0b0d,
	"bacass/zoned3/pressWR-LS":    0xe294761e06de8c3d,
	"bacass/zoned3/map-search":    0xa7f98a7f948c7ccc,
	"eager/small/slack":           0x100dd51a12e9b920,
	"eager/small/pressWR-LS":      0x34c58b5b3e63f1c3,
	"eager/small/map-search":      0x3f8f8a8eb6d4ce91,
	"eager/zoned3/slack":          0x688097c84ae64b4e,
	"eager/zoned3/pressWR-LS":     0x483ef97565512777,
	"eager/zoned3/map-search":     0x054f7d213aade5ae,
	"methylseq/small/slack":       0x9ef23bf434b484ef,
	"methylseq/small/pressWR-LS":  0xc39a09a70c2dd4c7,
	"methylseq/small/map-search":  0x1d79350362cb23c6,
	"methylseq/zoned3/slack":      0x5a31715e323a4b8a,
	"methylseq/zoned3/pressWR-LS": 0x735f68bfbdb66052,
	"methylseq/zoned3/map-search": 0x735f68bfbdb66052,
}

// goldenStats pins the solver's cache accounting after the whole roster
// ran against one cluster, in roster order: plan hits/misses, solve
// hits/misses, coalesced.
var goldenStats = map[string][5]int64{
	"small":  {12, 20, 0, 12, 0},
	"zoned3": {12, 20, 0, 12, 0},
}

func TestGoldenSolveResponses(t *testing.T) {
	const seed = 11
	families := []struct {
		name string
		f    cawosched.Family
	}{
		{"atacseq", cawosched.Atacseq},
		{"bacass", cawosched.Bacass},
		{"eager", cawosched.Eager},
		{"methylseq", cawosched.Methylseq},
	}
	clusters := []struct {
		name          string
		cluster       *cawosched.Cluster
		scenario      string
		zoneScenarios []string
	}{
		{name: "small", cluster: cawosched.SmallCluster(seed), scenario: "S3"},
		{name: "zoned3", cluster: cawosched.SmallZonedCluster(seed, 3), zoneScenarios: []string{"S1", "S3", "S2"}},
	}
	modes := []struct {
		name    string
		variant string
		mapping string
	}{
		{name: "slack", variant: "slack"},
		{name: "pressWR-LS", variant: "pressWR-LS"},
		{name: "map-search", variant: "pressWR-LS", mapping: cawosched.MapSearchName},
	}

	for _, cl := range clusters {
		solver := cawosched.NewSolver(cl.cluster)
		ts := httptest.NewServer(New(solver, Config{}))
		t.Cleanup(ts.Close)
		for _, fam := range families {
			wf, err := cawosched.GenerateWorkflow(fam.f, 60, seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range modes {
				name := fam.name + "/" + cl.name + "/" + mode.name
				resp, raw := postJSON(t, ts.Client(), ts.URL+"/v1/solve", &wire.SolveRequest{
					Workflow:       wire.FromDAG(wf),
					Variant:        mode.variant,
					Mapping:        mode.mapping,
					Scenario:       cl.scenario,
					ZoneScenarios:  cl.zoneScenarios,
					DeadlineFactor: 1.5,
					Seed:           seed,
				})
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s: status %d: %s", name, resp.StatusCode, raw)
				}
				h := fnv.New64a()
				h.Write(stripTimings(t, raw))
				if got, want := h.Sum64(), goldenDigests[name]; got != want {
					t.Errorf("%s: response digest %#016x, golden table has %#016x", name, got, want)
				}
			}
		}
		st := solver.Stats()
		got := [5]int64{st.PlanHits, st.PlanMisses, st.SolveHits, st.SolveMisses, st.SolveCoalesced}
		if want := goldenStats[cl.name]; got != want {
			t.Errorf("%s: plan hit/miss, solve hit/miss, coalesced = %v, golden table has %v", cl.name, got, want)
		}
	}
	if want := len(families) * len(clusters) * len(modes); len(goldenDigests) != want {
		t.Errorf("golden table has %d rows, roster has %d", len(goldenDigests), want)
	}
}

// TestSolveBodiesIndependentOfClusterHistory pins what lets two schedd
// peers agree: the body answering a request is a function of the request
// and the cluster's construction arguments, not of what the cluster solved
// before. Request A is answered by a fresh server, and again by a fresh
// server that first answered B and C (other workflows, so other links).
func TestSolveBodiesIndependentOfClusterHistory(t *testing.T) {
	const seed = 11
	clusters := []struct {
		name          string
		cluster       func() *cawosched.Cluster
		scenario      string
		zoneScenarios []string
	}{
		{name: "small", cluster: func() *cawosched.Cluster { return cawosched.SmallCluster(seed) }, scenario: "S3"},
		{name: "zoned3", cluster: func() *cawosched.Cluster { return cawosched.SmallZonedCluster(seed, 3) }, zoneScenarios: []string{"S1", "S3", "S2"}},
	}
	for _, cl := range clusters {
		request := func(f cawosched.Family) *wire.SolveRequest {
			wf, err := cawosched.GenerateWorkflow(f, 60, seed)
			if err != nil {
				t.Fatal(err)
			}
			return &wire.SolveRequest{
				Workflow:       wire.FromDAG(wf),
				Variant:        "pressWR-LS",
				Scenario:       cl.scenario,
				ZoneScenarios:  cl.zoneScenarios,
				DeadlineFactor: 1.5,
				Seed:           seed,
			}
		}
		solve := func(ts *httptest.Server, req *wire.SolveRequest) []byte {
			resp, raw := postJSON(t, ts.Client(), ts.URL+"/v1/solve", req)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d: %s", cl.name, resp.StatusCode, raw)
			}
			return stripTimings(t, raw)
		}
		a := request(cawosched.Atacseq)

		alone := httptest.NewServer(New(cawosched.NewSolver(cl.cluster()), Config{}))
		t.Cleanup(alone.Close)
		want := solve(alone, a)

		after := httptest.NewServer(New(cawosched.NewSolver(cl.cluster()), Config{}))
		t.Cleanup(after.Close)
		solve(after, request(cawosched.Eager))
		solve(after, request(cawosched.Methylseq))
		if got := solve(after, a); !bytes.Equal(got, want) {
			t.Errorf("%s: body for A after B and C (%d bytes) differs from A alone (%d bytes)", cl.name, len(got), len(want))
		}
	}
}
