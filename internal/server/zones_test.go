package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	cawosched "repro"
	"repro/internal/wire"
)

// antiCorrelatedZones is a 2-zone wire supply over [0, 20): zone 0 is
// green in the first half of the horizon, zone 1 in the second.
func antiCorrelatedZones() []wire.Zone {
	mk := func(b0, b1 int64) *wire.Profile {
		return &wire.Profile{Intervals: []wire.Interval{
			{Start: 0, End: 10, Budget: b0},
			{Start: 10, End: 20, Budget: b1},
		}}
	}
	return []wire.Zone{
		{Name: "early", Profile: mk(20, 1)},
		{Name: "late", Profile: mk(1, 20)},
	}
}

// TestServerMultiZoneEndToEnd is the multi-zone acceptance test: a 2-zone
// cluster served through POST /v1/solve with anti-correlated per-zone
// supply in the wire format. The scheduler must shift each task into its
// own zone's green window — opposite directions per zone — and the
// response must carry the per-zone carbon accounting.
func TestServerMultiZoneEndToEnd(t *testing.T) {
	// Two identical processors, one per zone; two independent equal tasks.
	cluster := cawosched.NewZonedCluster(
		[]cawosched.ProcType{{Name: "A", Speed: 1, Idle: 1, Work: 10}},
		[]int{2}, []int{0, 1}, 1)
	ts := httptest.NewServer(New(cawosched.NewSolver(cluster), Config{}))
	t.Cleanup(ts.Close)

	solve := func(zones []wire.Zone) *wire.SolveResponse {
		t.Helper()
		resp, raw := postJSON(t, ts.Client(), ts.URL+"/v1/solve", &wire.SolveRequest{
			Workflow: &wire.DAG{Tasks: []wire.Task{{Weight: 4}, {Weight: 4}}},
			Variant:  "pressWR-LS",
			Zones:    zones,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, raw)
		}
		var out wire.SolveResponse
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatal(err)
		}
		return &out
	}

	res := solve(antiCorrelatedZones())
	if res.Deadline != 20 {
		t.Fatalf("deadline %d, want the zones' horizon 20", res.Deadline)
	}
	// Each zone can fully cover its task, so the zone-aware schedule is
	// carbon-free while the carbon-blind ASAP baseline (both tasks at 0,
	// one of them deep in its zone's brown window) is not.
	if res.Cost != 0 || res.ASAPCost == 0 {
		t.Fatalf("cost %d (want 0), asap %d (want > 0)", res.Cost, res.ASAPCost)
	}
	// With both tasks independent, the search must have shifted them in
	// different directions: the early-zone task finishes inside [0, 10),
	// the late-zone task starts inside [10, 20).
	for _, e := range res.Schedule {
		switch e.Proc {
		case 0: // zone "early"
			if e.End > 10 {
				t.Errorf("early-zone task runs [%d, %d), outside its green window", e.Start, e.End)
			}
		case 1: // zone "late"
			if e.Start < 10 {
				t.Errorf("late-zone task runs [%d, %d), outside its green window", e.Start, e.End)
			}
		}
	}
	// Per-zone accounting: two named zones summing to the total cost; no
	// legacy top-level interval list for multi-zone responses.
	if len(res.Zones) != 2 || res.Zones[0].Zone != "early" || res.Zones[1].Zone != "late" {
		t.Fatalf("zone breakdown %+v", res.Zones)
	}
	var sum int64
	for _, z := range res.Zones {
		sum += z.Cost
	}
	if sum != res.Cost {
		t.Errorf("zone costs sum to %d, want %d", sum, res.Cost)
	}
	if len(res.Intervals) != 0 {
		t.Error("multi-zone response carries a top-level interval list")
	}

	// Swapping the zone profiles mirrors the placement: same cluster,
	// same workflow, opposite shifts.
	zones := antiCorrelatedZones()
	zones[0].Profile, zones[1].Profile = zones[1].Profile, zones[0].Profile
	mirrored := solve(zones)
	if mirrored.Cost != 0 {
		t.Fatalf("mirrored cost %d, want 0", mirrored.Cost)
	}
	for _, e := range mirrored.Schedule {
		switch e.Proc {
		case 0:
			if e.Start < 10 {
				t.Errorf("proc 0 task runs [%d, %d) under mirrored supply, want the late window", e.Start, e.End)
			}
		case 1:
			if e.End > 10 {
				t.Errorf("proc 1 task runs [%d, %d) under mirrored supply, want the early window", e.Start, e.End)
			}
		}
	}
}

// TestServerZoneScenarioRequest: generated per-zone profiles through the
// wire (zone_scenarios), on a zoned paper cluster.
func TestServerZoneScenarioRequest(t *testing.T) {
	ts := httptest.NewServer(New(cawosched.NewSolver(cawosched.SmallZonedCluster(7, 2)), Config{}))
	t.Cleanup(ts.Close)
	resp, raw := postJSON(t, ts.Client(), ts.URL+"/v1/solve", &wire.SolveRequest{
		Workflow:       wire.FromDAG(pinnedWorkflow(t)),
		Variant:        "pressWR-LS",
		ZoneScenarios:  []string{"S1", "S2"},
		DeadlineFactor: 2,
		Seed:           7,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var out wire.SolveResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Zones) != 2 {
		t.Fatalf("want 2 zones in the breakdown, got %d", len(out.Zones))
	}
	var sum int64
	for _, z := range out.Zones {
		sum += z.Cost
	}
	if sum != out.Cost {
		t.Errorf("zone costs sum to %d, want %d", sum, out.Cost)
	}

	// A bad per-zone count is a client error with the stable code.
	resp, raw = postJSON(t, ts.Client(), ts.URL+"/v1/solve", &wire.SolveRequest{
		Workflow:      wire.FromDAG(pinnedWorkflow(t)),
		ZoneScenarios: []string{"S1", "S2", "S3"},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mismatched zone scenarios: status %d, want 400: %s", resp.StatusCode, raw)
	}
	var werr wire.ErrorResponse
	if err := json.Unmarshal(raw, &werr); err != nil {
		t.Fatal(err)
	}
	if werr.Error == nil || werr.Error.Code != "invalid_request" {
		t.Errorf("error body %s, want code invalid_request", raw)
	}
}

// TestServerSingleZoneWireCompat: single-zone responses keep the legacy
// top-level interval list bit-identical to the zone 0 breakdown.
func TestServerSingleZoneWireCompat(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, raw := postJSON(t, ts.Client(), ts.URL+"/v1/solve", pinnedWireRequest(t))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var out wire.SolveResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Zones) != 1 || len(out.Intervals) == 0 {
		t.Fatalf("zones %d, intervals %d", len(out.Zones), len(out.Intervals))
	}
	if len(out.Zones[0].Intervals) != len(out.Intervals) {
		t.Fatal("zone 0 breakdown differs from the top-level interval list")
	}
	for i := range out.Intervals {
		if out.Intervals[i] != out.Zones[0].Intervals[i] {
			t.Fatalf("interval %d differs between the legacy and zone lists", i)
		}
	}
}

// TestProfileBodySharesOneZoneCacheEntry: a wire "profile" body is the
// one-zone supply of the same profile, so it and a one-zone "zones" body
// (unnamed, hence the default zone) are one solve-cache entry, whichever
// arrives first, with the identical answer.
func TestProfileBodySharesOneZoneCacheEntry(t *testing.T) {
	wf := pinnedWorkflow(t)
	inst, err := cawosched.PlanHEFT(wf, cawosched.SmallCluster(7))
	if err != nil {
		t.Fatal(err)
	}
	T := 2 * cawosched.ASAPMakespan(inst)
	prof := func(green int64) *wire.Profile {
		return &wire.Profile{Intervals: []wire.Interval{
			{Start: 0, End: T / 2, Budget: 0},
			{Start: T / 2, End: T, Budget: green},
		}}
	}
	_, ts := newTestServer(t, Config{})
	solve := func(req *wire.SolveRequest) *wire.SolveResponse {
		t.Helper()
		req.Workflow, req.Variant = wire.FromDAG(wf), "pressWR-LS"
		resp, raw := postJSON(t, ts.Client(), ts.URL+"/v1/solve", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, raw)
		}
		var out wire.SolveResponse
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatal(err)
		}
		return &out
	}
	for i, green := range []int64{1 << 20, 1 << 21} {
		bodies := []*wire.SolveRequest{
			{Profile: prof(green)},
			{Zones: []wire.Zone{{Profile: prof(green)}}},
		}
		if i == 1 {
			bodies[0], bodies[1] = bodies[1], bodies[0]
		}
		first, second := solve(bodies[0]), solve(bodies[1])
		if first.CacheHit || !second.CacheHit {
			t.Errorf("round %d: cache_hit %v then %v, want false then true", i, first.CacheHit, second.CacheHit)
		}
		if first.Cost != second.Cost || !reflect.DeepEqual(first.Schedule, second.Schedule) {
			t.Errorf("round %d: profile and one-zone bodies answered differently (cost %d vs %d)", i, first.Cost, second.Cost)
		}
	}
}
