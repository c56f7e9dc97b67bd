package server

import (
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
// compare worker and shard counts within one build; this table is the
// only thing that compares one build with the next, so a refactor that
// claims bit-identical output must leave it untouched. A failure prints
// the digest it got; only a change that means to alter schedules, costs or
// the wire format may paste that in.
var goldenDigests = map[string]uint64{
	"atacseq/small/slack":         0x822b03f4a95d8f3e,
	"atacseq/small/pressWR-LS":    0x2da16bcbed77c3e1,
	"atacseq/small/marginal":      0x91a34f6a1d4fbe4c,
	"atacseq/small/map-search":    0x2da16bcbed77c3e1,
	"atacseq/zoned3/slack":        0x29b0a2e6b73b273a,
	"atacseq/zoned3/pressWR-LS":   0xa549cea275dbd58c,
	"atacseq/zoned3/marginal":     0xa1990afbfb7a17e3,
	"atacseq/zoned3/map-search":   0x79672964f06c4b82,
	"bacass/small/slack":          0xf9db19816a2def89,
	"bacass/small/pressWR-LS":     0xcd7567b624ac0bb9,
	"bacass/small/marginal":       0x4a6fd4c6ba8df617,
	"bacass/small/map-search":     0x07a252b8af4ed739,
	"bacass/zoned3/slack":         0xf37ba9272ade5220,
	"bacass/zoned3/pressWR-LS":    0x8cbc7c9f328d3b2a,
	"bacass/zoned3/marginal":      0xe14a454fb7a5ff39,
	"bacass/zoned3/map-search":    0x7d374fe2c6ec1bec,
	"eager/small/slack":           0xe7dd4d95e2de1c12,
	"eager/small/pressWR-LS":      0xeed829b2563922cf,
	"eager/small/marginal":        0x9de92ce2799e0cdf,
	"eager/small/map-search":      0xb29c84992ef6965b,
	"eager/zoned3/slack":          0x03535cd7e30b6c61,
	"eager/zoned3/pressWR-LS":     0x38b244be4e01400c,
	"eager/zoned3/marginal":       0x380e058d06781a1e,
	"eager/zoned3/map-search":     0x1060eb68f55ea7c0,
	"methylseq/small/slack":       0xf1f6cee38b925867,
	"methylseq/small/pressWR-LS":  0x95e5905a0c914cc5,
	"methylseq/small/marginal":    0x5a3ad6153cd3ace0,
	"methylseq/small/map-search":  0xaeda5ccb7d1a53e4,
	"methylseq/zoned3/slack":      0x9a57d3e276a05b50,
	"methylseq/zoned3/pressWR-LS": 0x836406a84cd6e1c0,
	"methylseq/zoned3/marginal":   0xe59f089fc8bd1d72,
	"methylseq/zoned3/map-search": 0x836406a84cd6e1c0,
}

// goldenStats pins the solver's cache accounting after the whole roster
// ran against one cluster, in roster order: plan hits/misses, solve
// hits/misses, coalesced.
var goldenStats = map[string][5]int64{
	"small":  {16, 20, 0, 16, 0},
	"zoned3": {16, 20, 0, 16, 0},
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
		name     string
		variant  string
		marginal bool
		mapping  string
	}{
		{name: "slack", variant: "slack"},
		{name: "pressWR-LS", variant: "pressWR-LS"},
		{name: "marginal", variant: "pressWR-LS", marginal: true},
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
					Marginal:       mode.marginal,
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
