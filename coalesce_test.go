package cawosched_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	cawosched "repro"
	"repro/internal/server"
	"repro/internal/solve"
	"repro/internal/wire"
)

// gateTier is a cache tier that holds no record: its Get signals entered
// and then blocks until release is closed. A flight leader consults the
// tier right after it wins the election, before it computes, so the gate
// holds the leader in flight while followers pile up.
type gateTier struct{ entered, release chan struct{} }

func (g gateTier) Get(context.Context, string) ([]byte, bool) {
	g.entered <- struct{}{}
	<-g.release
	return nil, false
}

func (gateTier) Put(context.Context, string, []byte) {}

// herdSolver builds a solver whose coalesced leader signals entered and
// then blocks until the test closes release, so followers can pile up
// deterministically (and tests that care which request leads can wait for
// the election before spawning followers). The gate passes instantly once
// release is closed, tolerating re-elections.
func herdSolver(t *testing.T, seed uint64) (solver *cawosched.Solver, entered, release chan struct{}) {
	t.Helper()
	entered = make(chan struct{}, 16) // buffered: re-elected leaders signal too
	release = make(chan struct{})
	solver = solve.NewSolver(cawosched.SmallCluster(seed), solve.WithCacheTier(gateTier{entered, release}))
	return solver, entered, release
}

// awaitCoalesced polls the solver until n requests have coalesced onto an
// in-flight leader (the followers are then parked on the flight channel).
func awaitCoalesced(t *testing.T, solver *cawosched.Solver, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for solver.Stats().SolveCoalesced < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d followers coalesced in 10s", solver.Stats().SolveCoalesced, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSolveCoalescingHerd is the tentpole acceptance property: a
// thundering herd of N concurrent identical requests costs exactly one
// underlying solve — one leader counts the one miss, the other N−1 coalesce
// onto its flight and share a byte-identical response.
func TestSolveCoalescingHerd(t *testing.T) {
	const N = 8
	wf, err := cawosched.GenerateWorkflow(cawosched.Methylseq, 60, 7)
	if err != nil {
		t.Fatal(err)
	}
	solver, _, release := herdSolver(t, 7)
	req := cawosched.Request{Workflow: wf, Variant: "pressWR-LS", Scenario: cawosched.S1, Seed: 7}

	responses := make([]*cawosched.Response, N)
	errs := make([]error, N)
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			responses[i], errs[i] = solver.Solve(context.Background(), req)
		}(i)
	}
	awaitCoalesced(t, solver, N-1)
	close(release)
	wg.Wait()

	var leaders, followers int
	var leader *cawosched.Response
	for i, res := range responses {
		if errs[i] != nil {
			t.Fatalf("request %d failed: %v", i, errs[i])
		}
		if res.Coalesced {
			followers++
		} else {
			leaders++
			leader = res
		}
		if res.CacheHit {
			t.Errorf("request %d reported a cache hit inside the herd", i)
		}
	}
	if leaders != 1 || followers != N-1 {
		t.Fatalf("herd split %d leaders / %d followers, want 1 / %d", leaders, followers, N-1)
	}
	for i, res := range responses {
		if res.Cost != leader.Cost || res.ASAPCost != leader.ASAPCost || res.Deadline != leader.Deadline {
			t.Errorf("request %d diverged: cost %d want %d", i, res.Cost, leader.Cost)
		}
		for v := range leader.Schedule.Start {
			if res.Schedule.Start[v] != leader.Schedule.Start[v] {
				t.Fatalf("request %d schedule moved node %d", i, v)
			}
		}
	}

	st := solver.Stats()
	if st.SolveMisses != 1 || st.SolveCoalesced != N-1 || st.SolveHits != 0 {
		t.Errorf("stats = %+v, want 1 miss, %d coalesced, 0 hits", st, N-1)
	}
	if st.Solves != N {
		t.Errorf("stats counted %d solves, want %d", st.Solves, N)
	}

	// Every schedule handed out of the herd is a private copy: mutating
	// one response must not leak into the now-cached entry.
	want0 := leader.Schedule.Start[0]
	for _, res := range responses {
		res.Schedule.Start[0] += 1_000_000
	}
	after, err := solver.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !after.CacheHit {
		t.Error("post-herd request missed the cache the leader populated")
	}
	if after.Schedule.Start[0] != want0 {
		t.Errorf("herd mutation leaked into the cache: start[0] = %d, want %d", after.Schedule.Start[0], want0)
	}
}

// TestSolveCoalescingHerdHTTP is the herd gate on the serving stack: N
// identical map-search bodies posted at once to POST /v1/solve while the
// leader is held must all coalesce onto its one flight — every answer is
// 200, exactly one is not marked coalesced, all carry the same cost and
// schedule, and /metrics counts the N−1 followers.
func TestSolveCoalescingHerdHTTP(t *testing.T) {
	const N = 8
	wf, err := cawosched.GenerateWorkflow(cawosched.Methylseq, 60, 11)
	if err != nil {
		t.Fatal(err)
	}
	solver, _, release := herdSolver(t, 11)
	ts := httptest.NewServer(server.New(solver, server.Config{}))
	defer ts.Close()
	body, err := json.Marshal(wire.SolveRequest{
		Workflow: wire.FromDAG(wf), Variant: "pressWR-LS", Mapping: "map-search", Scenario: "S1", Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}

	statuses := make([]int, N)
	bodies := make([][]byte, N)
	errs := make([]error, N)
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := ts.Client().Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			statuses[i] = resp.StatusCode
			bodies[i], errs[i] = io.ReadAll(resp.Body)
		}(i)
	}
	awaitCoalesced(t, solver, N-1)
	close(release)
	wg.Wait()

	var leaders int
	var first wire.SolveResponse
	for i := range bodies {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if statuses[i] != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, statuses[i], bodies[i])
		}
		var got wire.SolveResponse
		if err := json.Unmarshal(bodies[i], &got); err != nil {
			t.Fatal(err)
		}
		if !got.Coalesced {
			leaders++
		}
		if i == 0 {
			first = got
			continue
		}
		if got.Cost != first.Cost || !reflect.DeepEqual(got.Schedule, first.Schedule) {
			t.Errorf("request %d diverged: cost %d, want %d, or a different schedule", i, got.Cost, first.Cost)
		}
	}
	if leaders != 1 {
		t.Errorf("%d of %d answers lack \"coalesced\": true, want exactly 1", leaders, N)
	}
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("schedd_solve_coalesced_total %d\n", N-1); !strings.Contains(string(metrics), want) {
		t.Errorf("/metrics lacks %q", strings.TrimSpace(want))
	}
}

// TestSolveCoalescingFollowerCancel: a follower whose own context dies
// detaches with ErrCanceled without disturbing the leader's solve; the
// leader (and a patient follower) still complete normally.
func TestSolveCoalescingFollowerCancel(t *testing.T) {
	wf, err := cawosched.GenerateWorkflow(cawosched.Eager, 50, 9)
	if err != nil {
		t.Fatal(err)
	}
	solver, entered, release := herdSolver(t, 9)
	req := cawosched.Request{Workflow: wf, Variant: "press", Scenario: cawosched.S2, Seed: 9}

	var wg sync.WaitGroup
	var leaderResp, patientResp *cawosched.Response
	var leaderErr, patientErr, impatientErr error
	wg.Add(1)
	go func() { defer wg.Done(); leaderResp, leaderErr = solver.Solve(context.Background(), req) }()
	<-entered // the first request holds the flight before any follower joins
	followerCtx, cancelFollower := context.WithCancel(context.Background())
	defer cancelFollower()
	wg.Add(2)
	go func() { defer wg.Done(); _, impatientErr = solver.Solve(followerCtx, req) }()
	go func() { defer wg.Done(); patientResp, patientErr = solver.Solve(context.Background(), req) }()

	awaitCoalesced(t, solver, 2)
	cancelFollower()
	// Give the canceled follower time to detach before the leader finishes,
	// so the test exercises detach-while-in-flight rather than a post-hoc
	// context check.
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()

	if !errors.Is(impatientErr, cawosched.ErrCanceled) || !errors.Is(impatientErr, context.Canceled) {
		t.Errorf("canceled follower returned %v, want ErrCanceled", impatientErr)
	}
	if leaderErr != nil || patientErr != nil {
		t.Fatalf("leader/patient failed: %v / %v", leaderErr, patientErr)
	}
	if leaderResp.Coalesced {
		t.Error("leader reported Coalesced")
	}
	if !patientResp.Coalesced {
		t.Error("patient follower did not report Coalesced")
	}
	if patientResp.Cost != leaderResp.Cost {
		t.Errorf("patient follower cost %d != leader cost %d", patientResp.Cost, leaderResp.Cost)
	}
	if st := solver.Stats(); st.SolveMisses != 1 {
		t.Errorf("stats = %+v, want exactly 1 miss despite the cancellation", st)
	}
}

// TestSolveCoalescingErrorNotCached: an infeasible solve propagates its
// error to every coalesced follower, and nothing is cached — the next
// request re-solves (and fails again) rather than hitting a poisoned entry.
func TestSolveCoalescingErrorNotCached(t *testing.T) {
	wf, err := cawosched.GenerateWorkflow(cawosched.Bacass, 40, 2)
	if err != nil {
		t.Fatal(err)
	}
	cluster := cawosched.SmallCluster(2)
	inst, err := cawosched.PlanHEFT(wf, cluster)
	if err != nil {
		t.Fatal(err)
	}
	D := cawosched.ASAPMakespan(inst)
	solver, _, release := herdSolver(t, 2)
	// Explicit supply with a horizon below the ASAP makespan: infeasible
	// by construction.
	req := cawosched.Request{Workflow: wf, Variant: "press", Zones: cawosched.SingleZone(cawosched.ConstantProfile(D/2, 1))}

	const N = 4
	errs := make([]error, N)
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = solver.Solve(context.Background(), req)
		}(i)
	}
	awaitCoalesced(t, solver, N-1)
	close(release)
	wg.Wait()

	for i, err := range errs {
		if !errors.Is(err, cawosched.ErrInfeasibleDeadline) {
			t.Errorf("request %d returned %v, want ErrInfeasibleDeadline", i, err)
		}
	}
	st := solver.Stats()
	if st.SolveEntries != 0 {
		t.Errorf("error result was cached: %d entries", st.SolveEntries)
	}
	if st.SolveMisses != 1 || st.SolveCoalesced != N-1 {
		t.Errorf("stats = %+v, want 1 miss, %d coalesced", st, N-1)
	}

	// The failure is not sticky: a retry re-solves (new miss, same error).
	if _, err := solver.Solve(context.Background(), req); !errors.Is(err, cawosched.ErrInfeasibleDeadline) {
		t.Errorf("retry returned %v, want ErrInfeasibleDeadline", err)
	}
	if st := solver.Stats(); st.SolveMisses != 2 || st.SolveHits != 0 {
		t.Errorf("stats after retry = %+v, want 2 misses, 0 hits", st)
	}
}

// TestSolveCoalescingLeaderCancel: when the LEADER's context dies, its
// followers do not inherit the cancellation — a surviving follower re-runs
// the election, becomes the new leader, and completes the solve. The herd
// still costs one successful solve.
func TestSolveCoalescingLeaderCancel(t *testing.T) {
	wf, err := cawosched.GenerateWorkflow(cawosched.Methylseq, 50, 13)
	if err != nil {
		t.Fatal(err)
	}
	solver, entered, release := herdSolver(t, 13)
	req := cawosched.Request{Workflow: wf, Variant: "slackW", Scenario: cawosched.S3, Seed: 13}

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var leaderErr, followerErr error
	var followerResp *cawosched.Response
	wg.Add(1)
	go func() { defer wg.Done(); _, leaderErr = solver.Solve(leaderCtx, req) }()
	<-entered // the cancellable request must hold the flight before the follower joins
	wg.Add(1)
	go func() { defer wg.Done(); followerResp, followerErr = solver.Solve(context.Background(), req) }()

	awaitCoalesced(t, solver, 1)
	cancelLeader()
	close(release) // first leader unblocks into a dead context; the re-elected leader passes straight through
	wg.Wait()

	if !errors.Is(leaderErr, cawosched.ErrCanceled) {
		t.Errorf("canceled leader returned %v, want ErrCanceled", leaderErr)
	}
	if followerErr != nil {
		t.Fatalf("surviving follower failed: %v", followerErr)
	}
	if followerResp.Coalesced {
		t.Error("re-elected leader still reports Coalesced")
	}
	if followerResp.CacheHit {
		t.Error("re-elected leader reported a cache hit")
	}
	st := solver.Stats()
	// Both the canceled leader and the re-elected one count a miss; the
	// follower's first join counted one coalesce.
	if st.SolveMisses != 2 || st.SolveCoalesced != 1 {
		t.Errorf("stats = %+v, want 2 misses, 1 coalesced", st)
	}
	if st.SolveEntries != 1 {
		t.Errorf("cache holds %d entries after the recovered herd, want 1", st.SolveEntries)
	}
}
