package main

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	cawosched "repro"
	"repro/internal/wire"
)

func solvedOnce(t *testing.T) *cawosched.Response {
	t.Helper()
	wf, err := cawosched.GenerateWorkflow(cawosched.Bacass, 30, 7)
	if err != nil {
		t.Fatal(err)
	}
	solver := cawosched.NewSolver(cawosched.SmallZonedCluster(clusterSeed, 2))
	resp, err := solver.Solve(context.Background(), solveOp{wf: wf, seed: 3, zones: 2}.request())
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestCheckHTTPCatchesWrongFlagAndStatus(t *testing.T) {
	body, err := json.Marshal(wire.SolveResponse{Cost: 10, ASAPCost: 20, Deadline: 100, CacheHit: true})
	if err != nil {
		t.Fatal(err)
	}
	s, err := checkHTTP(http.StatusOK, body, true)
	if err != nil || s.cost != 10 || s.asapCost != 20 || s.deadline != 100 {
		t.Fatalf("a good answer: %+v, %v", s, err)
	}
	if _, err := checkHTTP(http.StatusOK, body, false); err == nil || !strings.Contains(err.Error(), "cache_hit") {
		t.Errorf("a hit where the class expects a miss: %v", err)
	}
	if _, err := checkHTTP(http.StatusInternalServerError, []byte(`{"error":{"code":"internal"}}`), true); err == nil || !strings.Contains(err.Error(), "500") {
		t.Errorf("a 500: %v", err)
	}
	if _, err := checkHTTP(http.StatusOK, []byte(`{"cost": 10, "asap_cost": 20, "cache_hit": true}`), true); err == nil {
		t.Error("an answer without a deadline passed")
	}
}

func TestCheckLibraryCatchesDeadlineViolation(t *testing.T) {
	resp := solvedOnce(t)
	if _, err := checkLibrary(resp, false); err != nil {
		t.Fatalf("a good answer: %v", err)
	}
	if _, err := checkLibrary(resp, true); err == nil {
		t.Error("a miss where the class expects a hit passed")
	}
	// Push the last-finishing node past the deadline.
	last := 0
	for v, start := range resp.Schedule.Start {
		if start+resp.Instance.Dur[v] > resp.Schedule.Start[last]+resp.Instance.Dur[last] {
			last = v
		}
	}
	resp.Schedule.Start[last] = resp.Deadline
	if _, err := checkLibrary(resp, false); err == nil || !strings.Contains(err.Error(), "schedule invalid") {
		t.Errorf("a schedule that misses its deadline: %v", err)
	}
}
