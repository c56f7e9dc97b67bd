package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	cawosched "repro"
	"repro/internal/wire"
)

// TestServerConcurrentMixedLoad is the service's concurrency acceptance
// test (run with -race in CI): ≥ 32 parallel mixed solve/batch requests,
// a third of them canceled mid-flight from the client side, must all
// settle consistently — identical requests agree on cost, canceled ones
// fail cleanly — and leak no goroutines once the servers shut down.
func TestServerConcurrentMixedLoad(t *testing.T) {
	solver := cawosched.NewSolver(cawosched.SmallCluster(7))
	srv := New(solver, Config{RequestTimeout: 30 * time.Second, BatchWorkers: 4})
	ts := httptest.NewServer(srv)
	client := ts.Client()

	// Two distinct workflows; large enough that a mid-flight cancel lands
	// inside the scheduler, small enough to keep the test fast.
	wfA, err := cawosched.GenerateWorkflow(cawosched.Methylseq, 300, 7)
	if err != nil {
		t.Fatal(err)
	}
	wfB, err := cawosched.GenerateWorkflow(cawosched.Eager, 250, 8)
	if err != nil {
		t.Fatal(err)
	}
	reqFor := func(wf *cawosched.DAG, variant string) *wire.SolveRequest {
		return &wire.SolveRequest{Workflow: wire.FromDAG(wf), Variant: variant, Scenario: "S3", Seed: 7}
	}

	before := runtime.NumGoroutine()

	post := func(ctx context.Context, path string, body any) (int, []byte, error) {
		data, err := json.Marshal(body)
		if err != nil {
			t.Error(err)
			return 0, nil, err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+path, bytes.NewReader(data))
		if err != nil {
			t.Error(err)
			return 0, nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		return resp.StatusCode, raw, err
	}

	const waves = 36 // 12 solves + 12 canceled solves + 12 batches
	var wg sync.WaitGroup
	costs := make([]int64, waves) // -1 = not applicable
	for i := range costs {
		costs[i] = -1
	}
	variants := []string{"slack", "press", "pressWR-LS"}
	for i := 0; i < waves; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			wf := wfA
			if i%2 == 1 {
				wf = wfB
			}
			variant := variants[i%len(variants)]
			switch i % 3 {
			case 0: // plain solve
				status, raw, err := post(context.Background(), "/v1/solve", reqFor(wf, variant))
				if err != nil || status != http.StatusOK {
					t.Errorf("solve %d: status %d err %v: %s", i, status, err, raw)
					return
				}
				var res wire.SolveResponse
				if err := json.Unmarshal(raw, &res); err != nil {
					t.Errorf("solve %d: %v", i, err)
					return
				}
				costs[i] = res.Cost
			case 1: // canceled mid-flight from the client side
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(1+i%5)*time.Millisecond)
				defer cancel()
				status, raw, err := post(ctx, "/v1/solve", reqFor(wf, variant))
				if err == nil && status == http.StatusOK {
					// The solve beat the timeout; fine — record it.
					var res wire.SolveResponse
					if jerr := json.Unmarshal(raw, &res); jerr == nil {
						costs[i] = res.Cost
					}
					return
				}
				if err != nil && !errors.Is(err, context.DeadlineExceeded) {
					t.Errorf("canceled solve %d: unexpected transport error %v", i, err)
				}
			case 2: // batch of 3
				batch := wire.BatchRequest{Requests: []wire.SolveRequest{
					*reqFor(wf, variant), *reqFor(wf, variant), *reqFor(wfA, "slackW"),
				}}
				status, raw, err := post(context.Background(), "/v1/solve/batch", batch)
				if err != nil || status != http.StatusOK {
					t.Errorf("batch %d: status %d err %v", i, status, err)
					return
				}
				var res wire.BatchResponse
				if err := json.Unmarshal(raw, &res); err != nil {
					t.Errorf("batch %d: %v", i, err)
					return
				}
				for j, item := range res.Results {
					if item.Error != nil {
						t.Errorf("batch %d item %d failed in-band: %+v", i, j, item.Error)
					}
				}
				if res.Results[0].Response != nil && res.Results[1].Response != nil &&
					res.Results[0].Response.Cost != res.Results[1].Response.Cost {
					t.Errorf("batch %d: identical requests disagree: %d vs %d",
						i, res.Results[0].Response.Cost, res.Results[1].Response.Cost)
				}
			}
		}(i)
	}
	wg.Wait()

	// Identical (workflow, variant) solves must agree on cost across all
	// interleavings. Group by (wf parity, variant index).
	type key struct{ parity, variant int }
	seen := map[key]int64{}
	for i, c := range costs {
		if c < 0 {
			continue
		}
		k := key{i % 2, i % len(variants)}
		if prev, ok := seen[k]; ok {
			if prev != c {
				t.Errorf("request class %v: costs %d and %d disagree", k, prev, c)
			}
		} else {
			seen[k] = c
		}
	}

	drainAndCheckLeaks(t, srv, ts, before)
}

// drainAndCheckLeaks shuts the server down the way cmd/schedd does (see
// shutDown) and verifies that no goroutine outlives its request: the count
// returns to before.
func drainAndCheckLeaks(t *testing.T, srv *Server, ts *httptest.Server, before int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	shutDown(ctx, t, srv, ts)
	ts.Close()
	ts.Client().CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		buf := make([]byte, 1<<20)
		t.Errorf("goroutines leaked: %d before, %d after\n%s", before, after, buf[:runtime.Stack(buf, true)])
	}
}

// shutDown is cmd/schedd's SIGTERM path: SetDraining flips /healthz to
// 503, then http.Server.Shutdown closes the listener and waits for the
// in-flight requests to finish.
func shutDown(ctx context.Context, t *testing.T, srv *Server, ts *httptest.Server) {
	t.Helper()
	srv.SetDraining()
	resp, raw := getBody(t, ts.Client(), ts.URL+"/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(raw), `"draining"`) {
		t.Errorf("healthz while draining: %d %s, want 503 draining", resp.StatusCode, raw)
	}
	if err := ts.Config.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// inFlight reads the server's schedd_in_flight_requests gauge: the
// requests that have entered a handler and not yet left it.
func inFlight(t *testing.T, srv *Server) int {
	t.Helper()
	for _, line := range strings.Split(srv.Registry().RenderText(), "\n") {
		if v, ok := strings.CutPrefix(line, "schedd_in_flight_requests "); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatalf("in-flight gauge %q: %v", line, err)
			}
			return n
		}
	}
	t.Fatal("no schedd_in_flight_requests gauge")
	return 0
}
