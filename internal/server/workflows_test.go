package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	cawosched "repro"
	"repro/internal/power"
	"repro/internal/tenancy"
	"repro/internal/wire"
)

func newHTTPServer(t testing.TB, srv *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

func contextWithTimeout(t testing.TB, d time.Duration) (context.Context, context.CancelFunc) {
	t.Helper()
	return context.WithTimeout(context.Background(), d)
}

// newTenantServer builds a server whose solver and tenancy manager share
// one 2-zone cluster, with a simulated clock pinned at 0 so workflow
// states are stable across the test.
func newTenantServer(t testing.TB, cfg Config) (*Server, *tenancy.Manager, *tenancy.SimClock) {
	t.Helper()
	const zones = 2
	cluster := cawosched.SmallZonedCluster(7, zones)
	solver := cawosched.NewSolver(cluster)
	specs := make([]power.ZoneSpec, zones)
	for z := 0; z < zones; z++ {
		gmin, gmax := power.PlatformBounds(cluster.ZoneComputeIdle(z), cluster.ZoneComputeWork(z))
		specs[z] = power.ZoneSpec{
			Name:     string(rune('a' + z)),
			Scenario: power.Scenarios()[z%4],
			Gmin:     gmin,
			Gmax:     gmax,
		}
	}
	supply, err := power.GenerateZones(specs, 480, 24, 7)
	if err != nil {
		t.Fatal(err)
	}
	clock := tenancy.NewSimClock(0)
	m, err := tenancy.NewManager(tenancy.Config{Solver: solver, Supply: supply, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Manager = m
	return New(solver, cfg), m, clock
}

func errorCode(t testing.TB, raw []byte) string {
	t.Helper()
	var body wire.ErrorResponse
	if err := json.Unmarshal(raw, &body); err != nil || body.Error == nil {
		t.Fatalf("malformed error body: %s", raw)
	}
	return body.Error.Code
}

// TestWorkflowLifecycleHTTP drives the online-scheduling flow end to end:
// submit, status, list, zones, metrics, cancel, and the 404/409 paths —
// including the acceptance pin that an admission rejection travels as
// HTTP 409 with stable code "admission_rejected".
func TestWorkflowLifecycleHTTP(t *testing.T) {
	srv, m, _ := newTenantServer(t, Config{})
	ts := newHTTPServer(t, srv)
	client := ts.Client()
	wf := wire.FromDAG(pinnedWorkflow(t))

	// Submit.
	resp, raw := postJSON(t, client, ts.URL+"/v1/workflows", wire.SubmitWorkflowRequest{Workflow: wf})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit status %d: %s", resp.StatusCode, raw)
	}
	var st wire.WorkflowResponse
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.State != "admitted" || len(st.Claims) == 0 {
		t.Fatalf("submit response %+v", st)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/workflows/"+st.ID {
		t.Errorf("Location = %q", loc)
	}
	if st.Finish > st.Deadline {
		t.Errorf("finish %d past deadline %d", st.Finish, st.Deadline)
	}

	// Status round-trips.
	resp, raw = getBody(t, client, ts.URL+"/v1/workflows/"+st.ID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get status %d: %s", resp.StatusCode, raw)
	}
	var got wire.WorkflowResponse
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.ID != st.ID || got.Cost != st.Cost || len(got.Claims) != len(st.Claims) {
		t.Errorf("get %+v != submit %+v", got, st)
	}

	// Unknown id is a 404 with the stable code.
	resp, raw = getBody(t, client, ts.URL+"/v1/workflows/wf-999999")
	if resp.StatusCode != http.StatusNotFound || errorCode(t, raw) != "not_found" {
		t.Errorf("unknown id: %d %s", resp.StatusCode, raw)
	}

	// A valid submission carrying the removed "marginal" flag is a 400
	// invalid_request (strict decoding), not silently admitted.
	body, err := json.Marshal(wire.SubmitWorkflowRequest{Workflow: wf})
	if err != nil {
		t.Fatal(err)
	}
	resp, raw = postJSON(t, client, ts.URL+"/v1/workflows", json.RawMessage(`{"marginal":true,`+string(body[1:])))
	if resp.StatusCode != http.StatusBadRequest || errorCode(t, raw) != "invalid_request" {
		t.Errorf("marginal flag: %d %s", resp.StatusCode, raw)
	}

	// Saturate the window: zero-slack resubmissions of the same workflow
	// must eventually be rejected with 409 admission_rejected.
	rejected := false
	for i := 0; i < 4 && !rejected; i++ {
		resp, raw = postJSON(t, client, ts.URL+"/v1/workflows",
			wire.SubmitWorkflowRequest{Workflow: wf, DeadlineFactor: 1})
		switch resp.StatusCode {
		case http.StatusCreated:
		case http.StatusConflict:
			rejected = true
			if code := errorCode(t, raw); code != "admission_rejected" {
				t.Errorf("409 carries code %q, want admission_rejected", code)
			}
		default:
			t.Fatalf("resubmit status %d: %s", resp.StatusCode, raw)
		}
	}
	if !rejected {
		t.Fatal("zero-slack resubmissions were never rejected")
	}

	// List includes everything admitted.
	resp, raw = getBody(t, client, ts.URL+"/v1/workflows")
	var list wire.WorkflowListResponse
	if err := json.Unmarshal(raw, &list); err != nil {
		t.Fatal(err)
	}
	if g := m.Gauges(); int64(len(list.Workflows)) != g.SubmittedTotal {
		t.Errorf("list has %d workflows, gauges say %d", len(list.Workflows), g.SubmittedTotal)
	}

	// Zones reflect the configured supply.
	resp, raw = getBody(t, client, ts.URL+"/v1/zones")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("zones status %d: %s", resp.StatusCode, raw)
	}
	var zr wire.ZonesResponse
	if err := json.Unmarshal(raw, &zr); err != nil {
		t.Fatal(err)
	}
	wantDigest := fmt.Sprintf("%016x", m.Supply().Digest())
	if len(zr.Names) != 2 || zr.Names[0] != "a" || zr.Names[1] != "b" ||
		zr.Horizon != m.Supply().T() || zr.Digest != wantDigest {
		t.Errorf("zones = %+v, want names [a b] horizon %d digest %s", zr, m.Supply().T(), wantDigest)
	}

	// Ledger gauges are on /metrics.
	_, mraw := getBody(t, client, ts.URL+"/metrics")
	for _, want := range []string{
		"schedd_workflows{state=\"admitted\"}",
		"schedd_workflows_rejected_total 1",
		"schedd_ledger_claims",
		"schedd_ledger_reserved_units",
	} {
		if !strings.Contains(string(mraw), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Cancel releases the reservations; a second cancel is idempotent.
	before := m.Ledger().ReservedUnits()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/workflows/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var canceled wire.WorkflowResponse
	if err := json.NewDecoder(dresp.Body).Decode(&canceled); err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK || canceled.State != "canceled" {
		t.Errorf("cancel: %d %+v", dresp.StatusCode, canceled)
	}
	if after := m.Ledger().ReservedUnits(); after >= before {
		t.Errorf("cancel released nothing: %d -> %d", before, after)
	}
	if err := m.Ledger().Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestWorkflowEndpointsWithoutManager pins the degraded mode: a server
// without a tenancy manager answers 501 on the online endpoints.
func TestWorkflowEndpointsWithoutManager(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, raw := postJSON(t, ts.Client(), ts.URL+"/v1/workflows",
		wire.SubmitWorkflowRequest{Workflow: wire.FromDAG(pinnedWorkflow(t))})
	if resp.StatusCode != http.StatusNotImplemented || errorCode(t, raw) != "unsupported" {
		t.Errorf("submit without manager: %d %s", resp.StatusCode, raw)
	}
	resp, raw = getBody(t, ts.Client(), ts.URL+"/v1/zones")
	if resp.StatusCode != http.StatusNotImplemented || errorCode(t, raw) != "unsupported" {
		t.Errorf("zones without manager: %d %s", resp.StatusCode, raw)
	}
}

// TestBatchBackpressure pins the bounded-queue contract: a batch whose
// items cannot fit in the backlog is refused whole with 429, the stable
// code "overloaded", and a Retry-After hint — and the refusal releases no
// permanent capacity (a smaller batch still goes through).
func TestBatchBackpressure(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxQueue: 4, BatchWorkers: 2})
	good := pinnedWireRequest(t)

	over := wire.BatchRequest{Requests: make([]wire.SolveRequest, 6)}
	for i := range over.Requests {
		over.Requests[i] = *good
	}
	resp, raw := postJSON(t, ts.Client(), ts.URL+"/v1/solve/batch", over)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("oversized backlog status %d: %s", resp.StatusCode, raw)
	}
	if code := errorCode(t, raw); code != "overloaded" {
		t.Errorf("code %q, want overloaded", code)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After header")
	}

	// The refused batch must not leak backlog slots.
	fits := wire.BatchRequest{Requests: []wire.SolveRequest{*good, *good}}
	resp2, raw2 := postJSON(t, ts.Client(), ts.URL+"/v1/solve/batch", fits)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("fitting batch status %d: %s", resp2.StatusCode, raw2)
	}
	var got wire.BatchResponse
	if err := json.Unmarshal(raw2, &got); err != nil {
		t.Fatal(err)
	}
	for _, item := range got.Results {
		if item.Error != nil {
			t.Errorf("batch item error after refused batch: %+v", item.Error)
		}
	}
}

// TestGracefulDrainUnderLoad is the shutdown acceptance test: with batch
// solves and workflow submissions in flight, the SIGTERM path of
// cmd/schedd (shutDown: SetDraining, then http.Server.Shutdown) waits for
// them, every request still completes successfully, the ledger stays
// consistent, and no goroutines leak.
func TestGracefulDrainUnderLoad(t *testing.T) {
	srv, m, _ := newTenantServer(t, Config{BatchWorkers: 2})
	ts := newHTTPServer(t, srv)
	client := ts.Client()

	runtime.GC()
	baseline := runtime.NumGoroutine()

	good := pinnedWireRequest(t)
	batch := wire.BatchRequest{Requests: []wire.SolveRequest{*good, *good, *good, *good}}
	var wg sync.WaitGroup
	var mu sync.Mutex
	statuses := make(map[int]int)
	recorded := func() int {
		mu.Lock()
		defer mu.Unlock()
		n := 0
		for _, c := range statuses {
			n += c
		}
		return n
	}
	const sent = 6
	for i := 0; i < sent/2; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			resp, _ := postJSON(t, client, ts.URL+"/v1/solve/batch", batch)
			mu.Lock()
			statuses[resp.StatusCode]++
			mu.Unlock()
		}()
		go func(i int) {
			defer wg.Done()
			resp, _ := postJSON(t, client, ts.URL+"/v1/workflows",
				wire.SubmitWorkflowRequest{Workflow: wire.FromDAG(pinnedWorkflow(t)), DeadlineFactor: 8})
			mu.Lock()
			statuses[resp.StatusCode]++
			mu.Unlock()
		}(i)
	}

	// Shut down only once every request has entered a handler (or already
	// been answered): a request still on its way would find the listener
	// closed, which is no test of draining.
	for deadline := time.Now().Add(10 * time.Second); inFlight(t, srv)+recorded() < sent; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests reached the server", inFlight(t, srv)+recorded(), sent)
		}
		time.Sleep(time.Millisecond)
	}
	drainCtx, cancel := contextWithTimeout(t, 30*time.Second)
	defer cancel()
	shutDown(drainCtx, t, srv, ts)
	wg.Wait()

	mu.Lock()
	for status, n := range statuses {
		// 409 is an orderly admission answer (the concurrent submissions
		// compete for one window); anything else in flight must have
		// finished successfully — no aborted or half-written responses.
		if status != http.StatusOK && status != http.StatusCreated && status != http.StatusConflict {
			t.Errorf("%d in-flight requests finished with status %d", n, status)
		}
	}
	mu.Unlock()
	if err := m.Ledger().Audit(); err != nil {
		t.Fatal(err)
	}

	// No goroutine leaks once connections settle.
	deadline := time.Now().Add(10 * time.Second)
	for {
		// Connections may return to the idle pool after the first close;
		// keep sweeping them so only genuine leaks remain.
		client.CloseIdleConnections()
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		} else if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
