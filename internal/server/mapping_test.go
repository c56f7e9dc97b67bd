package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	cawosched "repro"
	"repro/internal/obs"
	"repro/internal/wire"
)

// greenBrownServer serves the mapping acceptance scenario: a 2-zone
// cluster of identical processors, zone 0 permanently brown, zone 1
// permanently green (the anti-correlated extreme).
func greenBrownServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	cluster := cawosched.NewZonedCluster(
		[]cawosched.ProcType{{Name: "A", Speed: 8, Idle: 1, Work: 10}},
		[]int{4}, []int{0, 0, 1, 1}, 1)
	ts := httptest.NewServer(New(cawosched.NewSolver(cluster), cfg))
	t.Cleanup(ts.Close)
	return ts
}

func greenBrownRequest(mapping string) *wire.SolveRequest {
	tasks := make([]wire.Task, 6)
	for i := range tasks {
		tasks[i] = wire.Task{Weight: 32}
	}
	mk := func(b int64) *wire.Profile {
		return &wire.Profile{Intervals: []wire.Interval{{Start: 0, End: 48, Budget: b}}}
	}
	return &wire.SolveRequest{
		Workflow: &wire.DAG{Tasks: tasks},
		Variant:  "pressWR-LS",
		Mapping:  mapping,
		Zones: []wire.Zone{
			{Name: "brown", Profile: mk(0)},
			{Name: "green", Profile: mk(100)},
		},
	}
}

// TestServerMapSearchEndToEnd is the POST /v1/solve half of the
// anti-correlated integration test: mapping "map-search" must report a
// zone-aware winning policy, strictly beat the fixed-mapping solve of the
// identical request, and shift the scheduled work into the green zone.
func TestServerMapSearchEndToEnd(t *testing.T) {
	ts := greenBrownServer(t, Config{})
	solve := func(mapping string) *wire.SolveResponse {
		t.Helper()
		resp, raw := postJSON(t, ts.Client(), ts.URL+"/v1/solve", greenBrownRequest(mapping))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, raw)
		}
		var out wire.SolveResponse
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatal(err)
		}
		return &out
	}

	fixed := solve("")
	if fixed.Mapping != "heft" {
		t.Errorf("fixed solve reports mapping %q, want heft", fixed.Mapping)
	}
	ms := solve("map-search")
	if ms.Cost >= fixed.Cost {
		t.Fatalf("map-search cost %d, fixed %d: want a strict improvement", ms.Cost, fixed.Cost)
	}
	pol, err := cawosched.ParseMappingPolicy(ms.Mapping)
	if err != nil || !pol.ZoneAware() {
		t.Errorf("winning mapping %q (%v), want a zone-aware policy", ms.Mapping, err)
	}
	// Placement: the bulk of the scheduled busy time runs on green-zone
	// processors (ids 2 and 3).
	var green, total int64
	for _, e := range ms.Schedule {
		dur := e.End - e.Start
		total += dur
		if e.Proc == 2 || e.Proc == 3 {
			green += dur
		}
	}
	if total == 0 || float64(green)/float64(total) < 0.8 {
		t.Errorf("map-search placed %d of %d busy time in the green zone", green, total)
	}
	// Per-zone accounting still sums to the total.
	var sum int64
	for _, z := range ms.Zones {
		sum += z.Cost
	}
	if sum != ms.Cost {
		t.Errorf("zone costs sum to %d, want %d", sum, ms.Cost)
	}
	// The identical request is a solve-cache hit with the same winner.
	again := solve("map-search")
	if !again.CacheHit || again.Mapping != ms.Mapping || again.Cost != ms.Cost {
		t.Errorf("repeat map-search: hit=%v mapping %q cost %d", again.CacheHit, again.Mapping, again.Cost)
	}
	checkMapSearchTelemetry(t, ts)
}

// checkMapSearchTelemetry holds the one computed map-search a server has
// answered, the second of three solves, to its trace and its candidate
// counts: the map span traces one map-candidate per policy, in policy
// order, a feasible one with its greedy and local-search phases below it
// and an infeasible one with a failed greedy, and
// schedd_mapsearch_candidates_total counts each policy once under the
// outcome its span reports.
func checkMapSearchTelemetry(t *testing.T, ts *httptest.Server) {
	t.Helper()
	_, traw := getBody(t, ts.Client(), ts.URL+"/debug/traces")
	var tresp obs.TracesResponse
	if err := json.Unmarshal(traw, &tresp); err != nil {
		t.Fatalf("parsing traces: %v\n%s", err, traw)
	}
	if len(tresp.Traces) != 3 {
		t.Fatalf("got %d traces, want 3:\n%s", len(tresp.Traces), traw)
	}
	solve := childNamed(tresp.Traces[1].Root, "solve")
	if solve == nil {
		t.Fatalf("no solve span in the map-search's trace:\n%s", traw)
	}
	m := childNamed(solve, obs.StageMap)
	if m == nil || m.Attrs["search"] != true {
		t.Fatalf("no map span with search=true under solve:\n%s", traw)
	}
	_, mraw := getBody(t, ts.Client(), ts.URL+"/metrics")
	policies := cawosched.MappingPolicies()
	if len(m.Children) != len(policies) {
		t.Fatalf("map span has %d children, want one map-candidate per policy (%d)", len(m.Children), len(policies))
	}
	for i, pol := range policies {
		c := m.Children[i]
		if c.Name != "map-candidate" || c.Attrs["policy"] != pol.String() {
			t.Fatalf("map child %d is %s %v, want map-candidate of %s", i, c.Name, c.Attrs, pol)
		}
		outcome, phases := "ok", []string{"greedy", "local-search"}
		if _, failed := c.Attrs["error"]; failed {
			outcome, phases = "error", []string{"greedy"}
		} else if _, ok := c.Attrs["cost"]; !ok {
			t.Errorf("candidate %s carries neither cost nor error: %v", pol, c.Attrs)
		}
		if got := childNames(c); !reflect.DeepEqual(got, phases) {
			t.Errorf("candidate %s (%s) has children %v, want %v", pol, outcome, got, phases)
		}
		want := fmt.Sprintf("schedd_mapsearch_candidates_total{policy=%q,outcome=%q} 1\n", pol.String(), outcome)
		if !strings.Contains(string(mraw), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if n := strings.Count(string(mraw), "\nschedd_mapsearch_candidates_total{"); n != len(policies) {
		t.Errorf("%d schedd_mapsearch_candidates_total series, want %d", n, len(policies))
	}
}

// TestServerUnknownMappingRejected: an unknown mapping spelling is a 400
// with the stable invalid_request code, for /v1/solve and in-band for
// batch items.
func TestServerUnknownMappingRejected(t *testing.T) {
	ts := greenBrownServer(t, Config{})
	resp, raw := postJSON(t, ts.Client(), ts.URL+"/v1/solve", greenBrownRequest("bogus"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, raw)
	}
	var werr wire.ErrorResponse
	if err := json.Unmarshal(raw, &werr); err != nil {
		t.Fatal(err)
	}
	if werr.Error == nil || werr.Error.Code != "invalid_request" {
		t.Errorf("error body %s, want code invalid_request", raw)
	}

	resp, raw = postJSON(t, ts.Client(), ts.URL+"/v1/solve/batch", &wire.BatchRequest{
		Requests: []wire.SolveRequest{*greenBrownRequest("bogus"), *greenBrownRequest("zonegreen")},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, raw)
	}
	var batch wire.BatchResponse
	if err := json.Unmarshal(raw, &batch); err != nil {
		t.Fatal(err)
	}
	if batch.Results[0].Error == nil || batch.Results[0].Error.Code != "invalid_request" {
		t.Errorf("batch item 0: %+v, want in-band invalid_request", batch.Results[0])
	}
	if batch.Results[1].Error != nil || batch.Results[1].Response.Mapping != "zonegreen" {
		t.Errorf("batch item 1: %+v, want a zonegreen solve", batch.Results[1])
	}
}

// TestServerDefaultMapping: a Config.DefaultMapping applies to requests
// that leave the mapping field empty, and explicit fields still win.
func TestServerDefaultMapping(t *testing.T) {
	ts := greenBrownServer(t, Config{DefaultMapping: "map-search"})
	resp, raw := postJSON(t, ts.Client(), ts.URL+"/v1/solve", greenBrownRequest(""))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var out wire.SolveResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	pol, err := cawosched.ParseMappingPolicy(out.Mapping)
	if err != nil || !pol.ZoneAware() {
		t.Errorf("default map-search returned mapping %q", out.Mapping)
	}
	resp, raw = postJSON(t, ts.Client(), ts.URL+"/v1/solve", greenBrownRequest("heft"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Mapping != "heft" {
		t.Errorf("explicit heft overridden by the default: %q", out.Mapping)
	}
}
