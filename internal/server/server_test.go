package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	cawosched "repro"
	"repro/internal/power"
	"repro/internal/wire"
)

// pinnedWorkflow is the deterministic instance every test solves: family,
// size, and every seed fixed.
func pinnedWorkflow(t testing.TB) *cawosched.DAG {
	t.Helper()
	wf, err := cawosched.GenerateWorkflow(cawosched.Methylseq, 60, 7)
	if err != nil {
		t.Fatal(err)
	}
	return wf
}

func pinnedWireRequest(t testing.TB) *wire.SolveRequest {
	t.Helper()
	return &wire.SolveRequest{
		Workflow:       wire.FromDAG(pinnedWorkflow(t)),
		Variant:        "pressWR-LS",
		Scenario:       "S1",
		DeadlineFactor: 1.5,
		Seed:           7,
	}
}

func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cawosched.NewSolver(cawosched.SmallCluster(7)), cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

func postJSON(t testing.TB, client *http.Client, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

func getBody(t testing.TB, client *http.Client, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// TestServerEndToEnd is the tentpole acceptance test: solving the pinned
// workflow over HTTP returns exactly the same schedule and cost as calling
// Solver.Solve directly, and a repeated identical request is served from
// the solve-response cache (hit counter increments, result identical).
func TestServerEndToEnd(t *testing.T) {
	// Direct reference: a separate solver built identically.
	wf := pinnedWorkflow(t)
	direct, err := cawosched.NewSolver(cawosched.SmallCluster(7)).Solve(context.Background(), cawosched.Request{
		Workflow:       wf,
		Variant:        "pressWR-LS",
		Scenario:       cawosched.S1,
		DeadlineFactor: 1.5,
		Seed:           7,
	})
	if err != nil {
		t.Fatal(err)
	}

	srv, ts := newTestServer(t, Config{})
	resp, raw := postJSON(t, ts.Client(), ts.URL+"/v1/solve", pinnedWireRequest(t))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var got wire.SolveResponse
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("decoding response: %v", err)
	}

	if got.Cost != direct.Cost || got.ASAPCost != direct.ASAPCost ||
		got.Deadline != direct.Deadline || got.ASAPMakespan != direct.D || got.Variant != direct.Variant {
		t.Errorf("HTTP result differs from direct solve: got %+v, want cost %d asap %d deadline %d D %d",
			got, direct.Cost, direct.ASAPCost, direct.Deadline, direct.D)
	}
	if got.CacheHit {
		t.Error("first request reported a cache hit")
	}
	if len(got.Schedule) != direct.Instance.N() {
		t.Fatalf("schedule has %d entries, instance has %d nodes", len(got.Schedule), direct.Instance.N())
	}
	for _, e := range got.Schedule {
		if want := direct.Schedule.Start[e.Node]; e.Start != want {
			t.Fatalf("node %d starts at %d over HTTP, %d directly", e.Node, e.Start, want)
		}
	}
	var brown int64
	for _, ic := range got.Intervals {
		brown += ic.Brown
	}
	if brown != got.Cost {
		t.Errorf("per-interval brown sum %d != cost %d", brown, got.Cost)
	}

	// Repeated identical request: served from the solve-response cache.
	resp2, raw2 := postJSON(t, ts.Client(), ts.URL+"/v1/solve", pinnedWireRequest(t))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("repeat status %d: %s", resp2.StatusCode, raw2)
	}
	var again wire.SolveResponse
	if err := json.Unmarshal(raw2, &again); err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Error("repeated identical request missed the solve-response cache")
	}
	if again.Cost != got.Cost {
		t.Errorf("cached cost %d != first cost %d", again.Cost, got.Cost)
	}
	for i := range got.Schedule {
		if again.Schedule[i] != got.Schedule[i] {
			t.Fatalf("cached schedule entry %d differs: %+v vs %+v", i, again.Schedule[i], got.Schedule[i])
		}
	}
	if st := srv.solver.Stats(); st.SolveHits != 1 {
		t.Errorf("solve cache hits = %d, want 1", st.SolveHits)
	}

	// The hit is visible on /metrics too.
	_, mraw := getBody(t, ts.Client(), ts.URL+"/metrics")
	for _, want := range []string{
		"schedd_solve_cache_hits_total 1",
		"schedd_solve_cache_misses_total 1",
		"schedd_plan_cache_hits_total 1",
		`schedd_requests_total{handler="solve"} 2`,
		`schedd_solve_latency_seconds_count{outcome="ok"} 1`,
		`schedd_solve_latency_seconds_count{outcome="cache_hit"} 1`,
		"schedd_in_flight_requests",
	} {
		if !strings.Contains(string(mraw), want) {
			t.Errorf("metrics exposition missing %q:\n%s", want, mraw)
		}
	}
}

// TestServerBatch: a mixed batch returns one in-band result per request in
// request order, failures included, with status 200.
func TestServerBatch(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	good := pinnedWireRequest(t)
	bad := pinnedWireRequest(t)
	bad.Variant = "no-such-variant"
	batch := wire.BatchRequest{Requests: []wire.SolveRequest{*good, *bad, *good}}

	resp, raw := postJSON(t, ts.Client(), ts.URL+"/v1/solve/batch", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var got wire.BatchResponse
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != 3 {
		t.Fatalf("%d results for 3 requests", len(got.Results))
	}
	for i, item := range got.Results {
		if item.Index != i {
			t.Errorf("result %d carries index %d", i, item.Index)
		}
	}
	if got.Results[0].Response == nil || got.Results[2].Response == nil {
		t.Fatal("good requests failed")
	}
	if got.Results[1].Error == nil || got.Results[1].Error.Code != "unknown_variant" {
		t.Errorf("bad request error = %+v, want unknown_variant", got.Results[1].Error)
	}
	if got.Results[0].Response.Cost != got.Results[2].Response.Cost {
		t.Error("identical batched requests disagree on cost")
	}
	// The third request repeats the first: within one batch the second
	// occurrence hits either the in-flight plan memo and, once the first
	// finishes, possibly the solve cache — at minimum both must agree.
	if !got.Results[2].Response.PlanCacheHit && !got.Results[0].Response.PlanCacheHit {
		t.Log("neither batched duplicate hit the plan cache (ordering-dependent; not an error)")
	}

	// Oversized batch is rejected up front.
	many := wire.BatchRequest{Requests: make([]wire.SolveRequest, 5)}
	for i := range many.Requests {
		many.Requests[i] = *good
	}
	_, ts2 := newTestServer(t, Config{MaxBatch: 4})
	resp2, raw2 := postJSON(t, ts2.Client(), ts2.URL+"/v1/solve/batch", many)
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized batch status %d: %s", resp2.StatusCode, raw2)
	}
	// Empty batch is rejected too.
	resp3, _ := postJSON(t, ts2.Client(), ts2.URL+"/v1/solve/batch", wire.BatchRequest{})
	if resp3.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch status %d", resp3.StatusCode)
	}
}

// TestServerErrorMapping: every failure mode surfaces as the documented
// stable code and HTTP status.
func TestServerErrorMapping(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	client := ts.Client()

	check := func(name string, status int, code string, resp *http.Response, raw []byte) {
		t.Helper()
		if resp.StatusCode != status {
			t.Errorf("%s: status %d, want %d (%s)", name, resp.StatusCode, status, raw)
		}
		var body wire.ErrorResponse
		if err := json.Unmarshal(raw, &body); err != nil || body.Error == nil {
			t.Errorf("%s: malformed error body %s", name, raw)
			return
		}
		if body.Error.Code != code {
			t.Errorf("%s: code %q, want %q", name, body.Error.Code, code)
		}
		if body.Error.Message == "" {
			t.Errorf("%s: empty message", name)
		}
	}

	// Malformed JSON.
	resp, err := client.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	check("bad json", http.StatusBadRequest, "invalid_request", resp, raw)

	// Unknown top-level field (strict decoding).
	resp, err = client.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(`{"wrkflow": {}}`))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	check("unknown field", http.StatusBadRequest, "invalid_request", resp, raw)

	// Anything but whitespace after the request value: a second value, or
	// garbage. (Trailing whitespace is fine; the repeat tests send it.)
	good, err := json.Marshal(pinnedWireRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, tail := range []string{`{"x":1}`, " garbage", "\n]"} {
		resp, err = client.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(string(good)+tail))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ = io.ReadAll(resp.Body)
		resp.Body.Close()
		check(fmt.Sprintf("trailing %q", tail), http.StatusBadRequest, "invalid_request", resp, raw)
	}

	// A valid request carrying the removed "marginal" flag: an unknown
	// field like any other, so it is rejected rather than ignored.
	resp, err = client.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(`{"marginal":true,`+string(good[1:])))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	check("marginal flag", http.StatusBadRequest, "invalid_request", resp, raw)

	// A body over MaxBodyBytes, on a server with a cap the pinned request
	// exceeds.
	_, small := newTestServer(t, Config{MaxBodyBytes: 512})
	resp, err = small.Client().Post(small.URL+"/v1/solve", "application/json", bytes.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	check("oversize body", http.StatusBadRequest, "invalid_request", resp, raw)
	if !strings.Contains(string(raw), "request body too large") {
		t.Errorf("oversize body: message does not say so: %s", raw)
	}

	// Missing workflow.
	r2, raw2 := postJSON(t, client, ts.URL+"/v1/solve", wire.SolveRequest{Variant: "slack"})
	check("missing workflow", http.StatusBadRequest, "invalid_request", r2, raw2)

	// Cyclic workflow.
	cyc := &wire.SolveRequest{Workflow: &wire.DAG{
		Tasks: []wire.Task{{Weight: 1}, {Weight: 1}},
		Edges: []wire.Edge{{From: 0, To: 1}, {From: 1, To: 0}},
	}}
	r3, raw3 := postJSON(t, client, ts.URL+"/v1/solve", cyc)
	check("cyclic workflow", http.StatusBadRequest, "invalid_request", r3, raw3)

	// Unknown variant.
	req := pinnedWireRequest(t)
	req.Variant = "bogus"
	r4, raw4 := postJSON(t, client, ts.URL+"/v1/solve", req)
	check("unknown variant", http.StatusBadRequest, "unknown_variant", r4, raw4)

	// Unknown scenario.
	req = pinnedWireRequest(t)
	req.Scenario = "S9"
	r5, raw5 := postJSON(t, client, ts.URL+"/v1/solve", req)
	check("unknown scenario", http.StatusBadRequest, "invalid_request", r5, raw5)

	// Infeasible deadline factor (< 1).
	req = pinnedWireRequest(t)
	req.DeadlineFactor = 0.5
	r6, raw6 := postJSON(t, client, ts.URL+"/v1/solve", req)
	check("infeasible deadline", http.StatusUnprocessableEntity, "infeasible_deadline", r6, raw6)

	// A deadline factor past the int64 horizon is refused, not clamped.
	req = pinnedWireRequest(t)
	req.DeadlineFactor = 1e300
	r8, raw8 := postJSON(t, client, ts.URL+"/v1/solve", req)
	check("deadline factor 1e300", http.StatusBadRequest, "invalid_request", r8, raw8)

	// So is a generated supply with more intervals than power.MaxIntervals.
	req = pinnedWireRequest(t)
	req.Intervals = power.MaxIntervals + 1
	r9, raw9 := postJSON(t, client, ts.URL+"/v1/solve", req)
	check("too many intervals", http.StatusBadRequest, "invalid_request", r9, raw9)

	// Wrong method on a POST route.
	resp7, _ := getBody(t, client, ts.URL+"/v1/solve")
	if resp7.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET on solve: status %d, want 405", resp7.StatusCode)
	}
}

// TestServerVariantsAndHealth covers the two read-only endpoints and the
// draining flip.
func TestServerVariantsAndHealth(t *testing.T) {
	srv, ts := newTestServer(t, Config{})

	resp, raw := getBody(t, ts.Client(), ts.URL+"/v1/variants")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("variants status %d", resp.StatusCode)
	}
	var vr wire.VariantsResponse
	if err := json.Unmarshal(raw, &vr); err != nil {
		t.Fatal(err)
	}
	if len(vr.Variants) != 16 {
		t.Errorf("%d variants, want 16", len(vr.Variants))
	}
	if vr.Default != cawosched.DefaultVariant {
		t.Errorf("default %q, want %q", vr.Default, cawosched.DefaultVariant)
	}

	resp, raw = getBody(t, ts.Client(), ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(raw), `"ok"`) {
		t.Errorf("healthz: %d %s", resp.StatusCode, raw)
	}

	srv.SetDraining()
	resp, raw = getBody(t, ts.Client(), ts.URL+"/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(raw), `"draining"`) {
		t.Errorf("draining healthz: %d %s", resp.StatusCode, raw)
	}
}

// TestServerProfileRequest drives a solve with an explicit wire profile and
// checks the deadline comes from the profile horizon.
func TestServerProfileRequest(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// First learn D from a generated-profile request.
	r, raw := postJSON(t, ts.Client(), ts.URL+"/v1/solve", pinnedWireRequest(t))
	if r.StatusCode != http.StatusOK {
		t.Fatalf("probe: %d %s", r.StatusCode, raw)
	}
	var probe wire.SolveResponse
	if err := json.Unmarshal(raw, &probe); err != nil {
		t.Fatal(err)
	}

	T := probe.ASAPMakespan * 2
	req := &wire.SolveRequest{
		Workflow: wire.FromDAG(pinnedWorkflow(t)),
		Variant:  "slackR",
		Profile: &wire.Profile{Intervals: []wire.Interval{
			{Start: 0, End: T / 2, Budget: 0},
			{Start: T / 2, End: T, Budget: 1 << 40},
		}},
	}
	r2, raw2 := postJSON(t, ts.Client(), ts.URL+"/v1/solve", req)
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("profile solve: %d %s", r2.StatusCode, raw2)
	}
	var got wire.SolveResponse
	if err := json.Unmarshal(raw2, &got); err != nil {
		t.Fatal(err)
	}
	if got.Deadline != T {
		t.Errorf("deadline %d, want profile horizon %d", got.Deadline, T)
	}
	if fmt.Sprint(got.Intervals[0].Budget, got.Intervals[1].Budget) != fmt.Sprint(0, 1<<40) {
		t.Errorf("breakdown budgets %v do not mirror the explicit profile", got.Intervals)
	}
}
