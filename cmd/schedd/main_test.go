package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	cawosched "repro"
	"repro/internal/obs"
	"repro/internal/wire"
)

func TestBuildCluster(t *testing.T) {
	small, label, err := buildCluster("small", "", 1, 42)
	if err != nil || label != "small" || small.NumCompute() != 72 {
		t.Fatalf("small: %v %q %d", err, label, small.NumCompute())
	}
	if small.NumZones() != 1 {
		t.Errorf("default small cluster has %d zones", small.NumZones())
	}
	large, _, err := buildCluster("large", "", 0, 42)
	if err != nil || large.NumCompute() != 144 || large.NumZones() != 1 {
		t.Fatalf("large: %v", err)
	}
	if _, _, err := buildCluster("medium", "", 1, 42); err == nil {
		t.Error("unknown cluster name accepted")
	}

	// -zones splits the paper clusters round-robin.
	zoned, _, err := buildCluster("small", "", 3, 42)
	if err != nil || zoned.NumZones() != 3 {
		t.Fatalf("zoned: %v, zones %d", err, zoned.NumZones())
	}

	// A cluster file in the wire format round-trips into the same
	// platform, zones included; the -zones flag is ignored for files.
	path := filepath.Join(t.TempDir(), "cluster.json")
	data, err := json.Marshal(wire.FromCluster(cawosched.SmallZonedCluster(9, 2)))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	fromFile, _, err := buildCluster("ignored", path, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fromFile.NumCompute() != 72 || fromFile.LinkSeed() != 9 || fromFile.NumZones() != 2 {
		t.Errorf("cluster file: %d compute, link seed %d, %d zones",
			fromFile.NumCompute(), fromFile.LinkSeed(), fromFile.NumZones())
	}

	if _, _, err := buildCluster("", filepath.Join(t.TempDir(), "missing.json"), 1, 0); err == nil {
		t.Error("missing cluster file accepted")
	}
}

// TestServeSmoke boots the real binary path on an ephemeral port, drives
// one request through it, and shuts it down gracefully via context cancel.
func TestServeSmoke(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	opt := options{
		addr: "127.0.0.1:0", clusterName: "small", zones: 1, seed: 7,
		reqTimeout: 30 * time.Second, batchWork: 2,
		maxBatch: 16, grace: 5 * time.Second,
	}
	go func() {
		done <- run(ctx, opt, ready)
	}()

	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("server exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}

	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(raw), `"ok"`) {
		t.Fatalf("healthz: %d %s", resp.StatusCode, raw)
	}

	wf, err := cawosched.GenerateWorkflow(cawosched.Bacass, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(wire.SolveRequest{Workflow: wire.FromDAG(wf), Variant: "slack", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post("http://"+addr+"/v1/solve", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d %s", resp.StatusCode, raw)
	}
	var sr wire.SolveResponse
	if err := json.Unmarshal(raw, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Cost < 0 || len(sr.Schedule) == 0 {
		t.Errorf("implausible solve response: %+v", sr)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful shutdown returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
	}
}

// tierMetricSum extracts the summed value of a labeled counter family
// from a Prometheus exposition.
func tierMetricSum(t *testing.T, exposition, family string) float64 {
	t.Helper()
	var sum float64
	for _, line := range strings.Split(exposition, "\n") {
		if !strings.HasPrefix(line, family+"{") {
			continue
		}
		fields := strings.Fields(line)
		var v float64
		if _, err := fmt.Sscanf(fields[len(fields)-1], "%g", &v); err != nil {
			t.Fatalf("parsing %q: %v", line, err)
		}
		sum += v
	}
	return sum
}

func scrapeMetrics(t *testing.T, addr string) string {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return string(raw)
}

// TestServeFleetSmoke is the daemon-level fleet acceptance test: two
// schedd processes' worth of daemons sharing a peers: ring. A request
// solved on A is served on B as a cross-process tier hit with zero tier
// errors; then A is killed mid-run and every further request on B still
// answers 200 — lookups for A-owned keys degrade to local misses and A's
// breaker opens.
func TestServeFleetSmoke(t *testing.T) {
	addrA, addrB := freeAddr(t), freeAddr(t)
	spec := "peers:" + addrA + "," + addrB
	boot := func(addr string) (context.CancelFunc, chan error) {
		ctx, cancel := context.WithCancel(context.Background())
		ready := make(chan string, 1)
		done := make(chan error, 1)
		opt := options{
			addr: addr, clusterName: "small", zones: 1, seed: 7,
			reqTimeout: 30 * time.Second, batchWork: 2,
			maxBatch: 16, grace: 5 * time.Second,
			solveCacheLimit: 1024, planCacheLimit: 1024,
			cacheTier: spec,
		}
		go func() { done <- run(ctx, opt, ready) }()
		select {
		case <-ready:
		case err := <-done:
			t.Fatalf("daemon %s exited early: %v", addr, err)
		case <-time.After(10 * time.Second):
			t.Fatalf("daemon %s never became ready", addr)
		}
		return cancel, done
	}
	cancelA, doneA := boot(addrA)
	cancelB, doneB := boot(addrB)
	defer func() {
		cancelB()
		select {
		case <-doneB:
		case <-time.After(10 * time.Second):
			t.Error("daemon B did not shut down")
		}
	}()

	wf, err := cawosched.GenerateWorkflow(cawosched.Bacass, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	solve := func(addr string, seed uint64) wire.SolveResponse {
		t.Helper()
		body, err := json.Marshal(wire.SolveRequest{Workflow: wire.FromDAG(wf), Variant: "slack", Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post("http://"+addr+"/v1/solve", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatalf("solve on %s: %v", addr, err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve on %s: %d %s", addr, resp.StatusCode, raw)
		}
		var sr wire.SolveResponse
		if err := json.Unmarshal(raw, &sr); err != nil {
			t.Fatal(err)
		}
		return sr
	}

	// Solve on A, wait for the async record shipment, then solve the same
	// request on B: a cross-process tier hit.
	if sr := solve(addrA, 1); sr.CacheHit {
		t.Error("cold solve on A reported a hit")
	}
	deadline := time.Now().Add(10 * time.Second)
	for tierMetricSum(t, scrapeMetrics(t, addrA), "schedd_cache_tier_puts_total") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("A never shipped its record to the ring owner")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if sr := solve(addrB, 1); !sr.CacheHit {
		t.Error("B's first solve of A's request was not a cross-process hit")
	}
	mB := scrapeMetrics(t, addrB)
	if hits := tierMetricSum(t, mB, "schedd_cache_tier_hits_total"); hits < 1 {
		t.Errorf("B tier hits = %g, want >= 1", hits)
	}
	if !strings.Contains(mB, "schedd_solver_tier_hits_total 1") {
		t.Error("B's solver counter missed the tier hit")
	}
	if errs := tierMetricSum(t, mB, "schedd_cache_tier_errors_total") +
		tierMetricSum(t, mB, "schedd_cache_tier_timeouts_total"); errs != 0 {
		t.Errorf("healthy fleet recorded %g tier errors/timeouts on B", errs)
	}

	// Kill A mid-run. Every further request on B must still answer 200 —
	// A-owned keys degrade to local misses — and A's breaker on B opens
	// once enough lookups have failed.
	cancelA()
	select {
	case err := <-doneA:
		if err != nil {
			t.Fatalf("daemon A shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon A did not shut down")
	}
	breakerOpen := false
	for seed := uint64(100); seed < 140; seed++ {
		solve(addrB, seed) // must not error whoever owns the key
		if strings.Contains(scrapeMetrics(t, addrB), `schedd_cache_tier_breaker_open{peer="`+addrA+`"} 1`) {
			breakerOpen = true
			break
		}
	}
	if !breakerOpen {
		t.Error("A's breaker on B never opened after 40 solves against a dead peer")
	}
}

// TestBuildSupply pins the supply-flag spellings: a single scenario fans
// out to every zone, a comma list must match the zone count, and unknown
// scenarios or horizons fail fast at startup.
func TestBuildSupply(t *testing.T) {
	cluster := cawosched.SmallZonedCluster(7, 3)
	zs, err := buildSupply(cluster, "S2", 480, 24, 42)
	if err != nil || zs.NumZones() != 3 || zs.T() != 480 {
		t.Fatalf("single scenario: %v %+v", err, zs)
	}
	zs2, err := buildSupply(cluster, "S1, S2,S3", 480, 24, 42)
	if err != nil || zs2.NumZones() != 3 {
		t.Fatalf("comma list: %v", err)
	}
	if zs.Digest() == zs2.Digest() {
		t.Error("distinct scenario lists generated identical supplies")
	}
	if _, err := buildSupply(cluster, "S1,S2", 480, 24, 42); err == nil {
		t.Error("2 scenarios for 3 zones accepted")
	}
	if _, err := buildSupply(cluster, "S9", 480, 24, 42); err == nil {
		t.Error("unknown scenario accepted")
	}
	if _, err := buildSupply(cluster, "S1", 0, 24, 42); err == nil {
		t.Error("zero horizon accepted")
	}
}

// TestServeOnlineSmoke boots the daemon with online scheduling and the
// rolling-horizon loop enabled, drives the submit/status/cancel flow over
// HTTP, and shuts down gracefully with the loop running.
func TestServeOnlineSmoke(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	opt := options{
		addr: "127.0.0.1:0", clusterName: "small", zones: 2, seed: 7,
		reqTimeout: 30 * time.Second, batchWork: 2,
		maxBatch: 16, grace: 5 * time.Second,
		supplyScenario: "S1,S3", supplyHorizon: 4320, supplyIntervals: 24,
		supplySeed: 7, timeUnit: 50 * time.Millisecond,
		rebalanceEvery: 20 * time.Millisecond,
	}
	go func() {
		done <- run(ctx, opt, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("server exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}
	base := "http://" + addr

	resp, err := http.Get(base + "/v1/zones")
	if err != nil {
		t.Fatal(err)
	}
	var zr wire.ZonesResponse
	if err := json.NewDecoder(resp.Body).Decode(&zr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(zr.Names) != 2 || zr.Horizon != 4320 || zr.Digest == "" {
		t.Fatalf("zones: %d %+v", resp.StatusCode, zr)
	}

	wf, err := cawosched.GenerateWorkflow(cawosched.Bacass, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(wire.SubmitWorkflowRequest{Workflow: wire.FromDAG(wf), DeadlineFactor: 4})
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(base+"/v1/workflows", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	var st wire.WorkflowResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || st.ID == "" {
		t.Fatalf("submit: %d %+v", resp.StatusCode, st)
	}

	// Let the wall clock and the rolling horizon tick at least once.
	time.Sleep(60 * time.Millisecond)

	resp, err = http.Get(base + "/v1/workflows/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var got wire.WorkflowResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || got.ID != st.ID {
		t.Fatalf("status: %d %+v", resp.StatusCode, got)
	}
	if got.Cost > got.AdmittedCost {
		t.Errorf("rolling horizon increased cost: %d > admitted %d", got.Cost, got.AdmittedCost)
	}

	req, err := http.NewRequest(http.MethodDelete, base+"/v1/workflows/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful shutdown returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
	}
}

// TestObservabilityEndToEnd boots the full daemon — online scheduling,
// rolling horizon, and the -debug-addr side listener — drives a mix of
// solve, batch, and workflow traffic, and then checks every observability
// surface: a valid Prometheus exposition with carbon and stage families,
// the request's trace (keyed by the client's X-Request-ID) with its stage
// spans, per-stage timings on the wire, and pprof on the side listener.
// freeAddr reserves an ephemeral port and releases it for the daemon to
// bind: run only reports the main listener's address through ready, so the
// test must know the debug address up front.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func TestObservabilityEndToEnd(t *testing.T) {
	debugAddr := freeAddr(t)
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	opt := options{
		addr: "127.0.0.1:0", debugAddr: debugAddr,
		clusterName: "small", zones: 2, seed: 7,
		reqTimeout: 30 * time.Second, batchWork: 2,
		maxBatch: 16, grace: 5 * time.Second,
		supplyScenario: "S1,S3", supplyHorizon: 4320, supplyIntervals: 24,
		supplySeed: 7, timeUnit: 50 * time.Millisecond,
		rebalanceEvery: 20 * time.Millisecond,
		traceBuffer:    64, slowSolve: -1,
	}
	go func() {
		done <- run(ctx, opt, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("server exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}
	base := "http://" + addr

	wf, err := cawosched.GenerateWorkflow(cawosched.Bacass, 30, 1)
	if err != nil {
		t.Fatal(err)
	}

	// One traced solve with a client request ID.
	sbody, err := json.Marshal(wire.SolveRequest{
		Workflow: wire.FromDAG(wf), Variant: "pressWR-LS", DeadlineFactor: 1.5, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, base+"/v1/solve", strings.NewReader(string(sbody)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", "obs-e2e-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d %s", resp.StatusCode, raw)
	}
	if got := resp.Header.Get("X-Request-ID"); got != "obs-e2e-1" {
		t.Errorf("X-Request-ID echoed as %q", got)
	}
	var sr wire.SolveResponse
	if err := json.Unmarshal(raw, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Timings) == 0 {
		t.Error("solve response carries no stage timings")
	}
	stages := map[string]bool{}
	for _, st := range sr.Timings {
		stages[st.Stage] = true
	}
	for _, want := range []string{"plan", "supply", "cache", "schedule"} {
		if !stages[want] {
			t.Errorf("wire timings missing stage %q: %+v", want, sr.Timings)
		}
	}

	// A small batch and a workflow submission to widen the traffic mix.
	bbody, err := json.Marshal(wire.BatchRequest{Requests: []wire.SolveRequest{
		{Workflow: wire.FromDAG(wf), Variant: "slack", Seed: 2},
		{Workflow: wire.FromDAG(wf), Variant: "no-such", Seed: 3},
	}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(base+"/v1/solve/batch", "application/json", strings.NewReader(string(bbody)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d", resp.StatusCode)
	}
	wbody, err := json.Marshal(wire.SubmitWorkflowRequest{Workflow: wire.FromDAG(wf), DeadlineFactor: 4})
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(base+"/v1/workflows", "application/json", strings.NewReader(string(wbody)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	// Let the rolling horizon tick so rebalance metrics move.
	time.Sleep(60 * time.Millisecond)

	// The exposition parses and carries the new families.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mraw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("metrics Content-Type %q", ct)
	}
	if err := obs.ValidateExposition(string(mraw)); err != nil {
		t.Fatalf("invalid exposition: %v", err)
	}
	for _, want := range []string{
		`schedd_solve_latency_seconds_count{outcome="ok"}`,
		`schedd_solve_latency_seconds_count{outcome="error"}`,
		`schedd_stage_latency_seconds_count{stage="schedule"}`,
		"schedd_carbon_green_units_total{zone=",
		"schedd_carbon_brown_units_total{zone=",
		"schedd_workflows_submitted_total 1",
		"schedd_rebalance_passes_total",
		`schedd_tenant_cost_units{view="admitted"}`,
		"schedd_build_info{go_version=",
	} {
		if !strings.Contains(string(mraw), want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// The traced solve is in /debug/traces under its request ID, with the
	// stage spans nested below the solve span.
	resp, err = http.Get(base + "/debug/traces?n=100")
	if err != nil {
		t.Fatal(err)
	}
	var traces obs.TracesResponse
	if err := json.NewDecoder(resp.Body).Decode(&traces); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	var solveTrace *obs.Trace
	for _, tr := range traces.Traces {
		if tr.ID == "obs-e2e-1" {
			solveTrace = tr
		}
	}
	if solveTrace == nil {
		t.Fatalf("no trace for request obs-e2e-1 among %d traces", len(traces.Traces))
	}
	var solveSpan *obs.SpanData
	for _, c := range solveTrace.Root.Children {
		if c.Name == "solve" {
			solveSpan = c
		}
	}
	if solveSpan == nil {
		t.Fatal("traced request has no solve span")
	}
	names := map[string]bool{}
	for _, c := range solveSpan.Children {
		names[c.Name] = true
	}
	for _, want := range []string{obs.StagePlan, obs.StageSupply, obs.StageCache, obs.StageSchedule} {
		if !names[want] {
			t.Errorf("solve span missing %q child (have %v)", want, names)
		}
	}

	// The side listener serves pprof and the same metrics view.
	dresp, err := http.Get("http://" + debugAddr + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatalf("debug listener: %v", err)
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Errorf("pprof cmdline: %d", dresp.StatusCode)
	}
	dresp, err = http.Get("http://" + debugAddr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	dmraw, _ := io.ReadAll(dresp.Body)
	dresp.Body.Close()
	if err := obs.ValidateExposition(string(dmraw)); err != nil {
		t.Errorf("debug-listener exposition invalid: %v", err)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful shutdown returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
	}
}
