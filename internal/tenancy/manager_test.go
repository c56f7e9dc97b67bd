package tenancy

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	cawosched "repro"
	"repro/internal/power"
	"repro/internal/rng"
	"repro/internal/scherr"
)

// testManager builds a manager over a small K-zone cluster with one
// generated supply profile per zone (periodic horizon 480) and a SimClock
// starting at 0.
func testManager(t testing.TB, seed uint64, zones int) (*Manager, *SimClock) {
	t.Helper()
	cluster := cawosched.SmallZonedCluster(seed, zones)
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
	supply, err := power.GenerateZones(specs, 480, 24, seed)
	if err != nil {
		t.Fatal(err)
	}
	clock := NewSimClock(0)
	m, err := NewManager(Config{
		Solver: cawosched.NewSolver(cluster),
		Supply: supply,
		Clock:  clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m, clock
}

func testWorkflow(t testing.TB, n int, seed uint64) *cawosched.DAG {
	t.Helper()
	wf, err := cawosched.GenerateWorkflow(cawosched.Bacass, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return wf
}

func TestManagerLifecycle(t *testing.T) {
	m, clock := testManager(t, 3, 2)
	wf := testWorkflow(t, 40, 7)
	ctx := context.Background()

	st, err := m.Submit(ctx, SubmitRequest{Workflow: wf})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "wf-000001" {
		t.Errorf("ID = %q", st.ID)
	}
	if st.State != StateAdmitted && st.State != StateRunning {
		t.Errorf("state = %q", st.State)
	}
	if st.Finish > st.Deadline {
		t.Errorf("finish %d past deadline %d", st.Finish, st.Deadline)
	}
	if len(st.Claims) == 0 {
		t.Fatal("no committed claims")
	}
	if st.Cost != st.AdmittedCost {
		t.Errorf("cost %d != admitted cost %d before any rebalance", st.Cost, st.AdmittedCost)
	}
	if err := m.Ledger().Audit(); err != nil {
		t.Fatal(err)
	}

	// Walk the clock through the placement's life.
	clock.Set(st.Start)
	if got, _ := m.Get(st.ID); got.State != StateRunning {
		t.Errorf("at start: state = %q, want running", got.State)
	}
	clock.Set(st.Finish)
	if got, _ := m.Get(st.ID); got.State != StateCompleted {
		t.Errorf("at finish: state = %q, want completed", got.State)
	}
	// Canceling a completed workflow is a no-op.
	got, err := m.Cancel(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateCompleted {
		t.Errorf("cancel after completion flipped state to %q", got.State)
	}
	if g := m.Gauges(); g.Completed != 1 || g.SubmittedTotal != 1 || g.CanceledTotal != 0 {
		t.Errorf("gauges = %+v", g)
	}

	if _, err := m.Get("wf-999999"); !errors.Is(err, scherr.ErrNotFound) {
		t.Errorf("Get unknown = %v, want ErrNotFound", err)
	}
	if _, err := m.Cancel("nope"); !errors.Is(err, scherr.ErrNotFound) {
		t.Errorf("Cancel unknown = %v, want ErrNotFound", err)
	}
}

// TestManagerAdmissionRejected pins the admission-control contract: with
// zero deadline slack the first tenant's placement saturates its own
// time window, so an identical second submission cannot shift into the
// deadline and is rejected with an error satisfying both sentinels.
func TestManagerAdmissionRejected(t *testing.T) {
	m, _ := testManager(t, 3, 2)
	wf := testWorkflow(t, 40, 7)
	ctx := context.Background()

	if _, err := m.Submit(ctx, SubmitRequest{Workflow: wf, DeadlineFactor: 1}); err != nil {
		t.Fatal(err)
	}
	_, err := m.Submit(ctx, SubmitRequest{Workflow: wf, DeadlineFactor: 1})
	if err == nil {
		t.Fatal("second zero-slack submission admitted onto a saturated window")
	}
	if !errors.Is(err, scherr.ErrAdmissionRejected) {
		t.Errorf("errors.Is(err, ErrAdmissionRejected) = false: %v", err)
	}
	if !errors.Is(err, scherr.ErrInfeasibleDeadline) {
		t.Errorf("errors.Is(err, ErrInfeasibleDeadline) = false: %v", err)
	}
	if code := scherr.Code(err); code != scherr.CodeAdmissionRejected {
		t.Errorf("Code = %q, want %q", code, scherr.CodeAdmissionRejected)
	}
	g := m.Gauges()
	if g.RejectedTotal != 1 || g.SubmittedTotal != 1 {
		t.Errorf("gauges = %+v", g)
	}
	// A generous deadline admits the same workflow by shifting it.
	st, err := m.Submit(ctx, SubmitRequest{Workflow: wf, DeadlineFactor: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Ledger().Audit(); err != nil {
		t.Fatal(err)
	}
	if st.Finish > st.Deadline {
		t.Errorf("shifted placement finish %d past deadline %d", st.Finish, st.Deadline)
	}
}

func TestManagerCancelReleasesFuture(t *testing.T) {
	m, clock := testManager(t, 5, 2)
	ctx := context.Background()
	a, err := m.Submit(ctx, SubmitRequest{Workflow: testWorkflow(t, 40, 7), DeadlineFactor: 1})
	if err != nil {
		t.Fatal(err)
	}
	before := m.Ledger().ReservedUnits()
	st, err := m.Cancel(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCanceled {
		t.Errorf("state = %q, want canceled", st.State)
	}
	if after := m.Ledger().ReservedUnits(); after >= before {
		t.Errorf("cancel released nothing: reserved %d -> %d", before, after)
	}
	// The freed window admits the same zero-slack workflow again.
	if _, err := m.Submit(ctx, SubmitRequest{Workflow: testWorkflow(t, 40, 7), DeadlineFactor: 1}); err != nil {
		t.Fatalf("resubmit after cancel: %v", err)
	}
	// Idempotent.
	if st2, err := m.Cancel(a.ID); err != nil || st2.State != StateCanceled {
		t.Errorf("second cancel = (%+v, %v)", st2, err)
	}
	if g := m.Gauges(); g.CanceledTotal != 1 || g.Canceled != 1 {
		t.Errorf("gauges = %+v", g)
	}
	_ = clock
}

// rebalanceScenario drives one fixed sequence of submissions, a cancel,
// and rolling-horizon passes, returning the manager's history.
func rebalanceScenario(t testing.TB, seed uint64) ([]Event, RebalanceReport) {
	m, clock := testManager(t, seed, 2)
	ctx := context.Background()
	// A zero-slack foreground tenant burns the green window...
	if _, err := m.Submit(ctx, SubmitRequest{Workflow: testWorkflow(t, 50, 11), DeadlineFactor: 1}); err != nil {
		t.Fatal(err)
	}
	// ...so the slack-rich tenants admitted after it land on a depleted
	// residual view.
	for s := uint64(1); s <= 3; s++ {
		if _, err := m.Submit(ctx, SubmitRequest{Workflow: testWorkflow(t, 30, s), DeadlineFactor: 12}); err != nil {
			t.Fatal(err)
		}
	}
	// The foreground tenant leaves; its green energy returns to the pool.
	if _, err := m.Cancel("wf-000001"); err != nil {
		t.Fatal(err)
	}
	clock.Advance(1)
	rep, err := m.Rebalance(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return m.History(), rep
}

// TestManagerRebalanceNeverWorse: every adopted move in the history is a
// strict improvement on the same residual view, and a pass never loses a
// placement (each workflow keeps committed claims covering its work).
func TestManagerRebalanceNeverWorse(t *testing.T) {
	history, rep := rebalanceScenario(t, 3)
	moves := 0
	for _, e := range history {
		if e.Kind != "rebalance" {
			continue
		}
		moves++
		if !e.Improved || e.Cost >= e.PrevCost {
			t.Errorf("adopted move did not improve: %+v", e)
		}
	}
	if moves != rep.Moved {
		t.Errorf("history has %d moves, report says %d", moves, rep.Moved)
	}
	if rep.Saved < 0 {
		t.Errorf("report claims negative savings: %+v", rep)
	}
	if rep.Considered == 0 {
		t.Error("rolling horizon considered no admitted workflows")
	}
	// The scenario is deterministic and engineered so the canceled
	// foreground tenant's green energy makes at least one move worthwhile:
	// a run with zero moves means the adopt path regressed.
	if rep.Moved < 1 || rep.Saved <= 0 {
		t.Errorf("expected an adopted improvement, got %+v", rep)
	}
}

// TestManagerHistoryDeterministic: the same arrival trace on the same
// simulated clock yields a byte-identical placement history.
func TestManagerHistoryDeterministic(t *testing.T) {
	h1, _ := rebalanceScenario(t, 3)
	h2, _ := rebalanceScenario(t, 3)
	b1, err := json.Marshal(h1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(h2)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Errorf("histories differ:\n%s\n%s", b1, b2)
	}
}

// TestManagerConcurrentSubmitCancel is the randomized concurrency test
// behind the never-double-books acceptance criterion: goroutines submit,
// cancel, and advance time against one manager; under -race the ledger
// must stay sorted and non-overlapping through every interleaving, which
// an audit after every operation checks.
func TestManagerConcurrentSubmitCancel(t *testing.T) {
	m, clock := testManager(t, 9, 2)
	ctx := context.Background()
	const G, rounds = 4, 5
	var mu sync.Mutex
	var ids []string
	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rng.New(uint64(g) + 100)
			audit := func(op string) {
				if err := m.Ledger().Audit(); err != nil {
					t.Errorf("after %s: %v", op, err)
				}
			}
			for i := 0; i < rounds; i++ {
				wf := testWorkflow(t, 20+2*g, uint64(g*rounds+i))
				st, err := m.Submit(ctx, SubmitRequest{Workflow: wf, DeadlineFactor: 4})
				audit("submit")
				if err != nil {
					if !errors.Is(err, scherr.ErrAdmissionRejected) {
						t.Errorf("submit: %v", err)
					}
					continue
				}
				mu.Lock()
				ids = append(ids, st.ID)
				n := len(ids)
				victim := ids[r.Intn(n)]
				mu.Unlock()
				if r.Intn(2) == 0 {
					if _, err := m.Cancel(victim); err != nil {
						t.Errorf("cancel %s: %v", victim, err)
					}
					audit("cancel")
				}
				if r.Intn(3) == 0 {
					clock.Advance(int64(r.Intn(5)))
				}
			}
		}(g)
	}
	wg.Wait()
	if err := m.Ledger().Audit(); err != nil {
		t.Fatal(err)
	}
	g := m.Gauges()
	if int(g.SubmittedTotal) != len(ids) {
		t.Errorf("SubmittedTotal = %d, admitted ids = %d", g.SubmittedTotal, len(ids))
	}
	for _, st := range m.List() {
		if st.State != StateCanceled && st.Finish > st.Deadline {
			t.Errorf("%s: finish %d past deadline %d", st.ID, st.Finish, st.Deadline)
		}
	}
}

func TestManagerConfigValidation(t *testing.T) {
	cluster := cawosched.SmallZonedCluster(3, 2)
	solver := cawosched.NewSolver(cluster)
	supply1, err := power.GenerateZones([]power.ZoneSpec{
		{Name: "a", Scenario: power.Scenarios()[0], Gmin: 10, Gmax: 100},
	}, 480, 24, 1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no solver", Config{Supply: supply1, Clock: NewSimClock(0)}},
		{"no clock", Config{Solver: solver, Supply: supply1}},
		{"no supply", Config{Solver: solver, Clock: NewSimClock(0)}},
		{"zone mismatch", Config{Solver: solver, Supply: supply1, Clock: NewSimClock(0)}},
	}
	for _, c := range cases {
		if _, err := NewManager(c.cfg); err == nil {
			t.Errorf("%s: NewManager accepted %+v", c.name, c.cfg)
		}
	}
	wf := testWorkflow(t, 20, 1)
	m, _ := testManager(t, 3, 2)
	if _, err := m.Submit(context.Background(), SubmitRequest{}); !errors.Is(err, scherr.ErrInvalidRequest) {
		t.Errorf("nil workflow: %v", err)
	}
	if _, err := m.Submit(context.Background(), SubmitRequest{Workflow: wf, DeadlineFactor: 0.5}); !errors.Is(err, scherr.ErrInvalidRequest) {
		t.Errorf("factor < 1: %v", err)
	}
	_ = fmt.Sprint()
}

// TestSubmitDeadlineOutOfRange: a deadline factor the int64 horizon cannot
// hold, a deadline past the end of time, and a window too long to project
// the supply onto are each an invalid request, refused without admitting
// anything. (The first two used to give the tightest deadline; the last
// cost time and memory linear in the factor.)
func TestSubmitDeadlineOutOfRange(t *testing.T) {
	wf := testWorkflow(t, 20, 1)
	ctx := context.Background()
	m, clock := testManager(t, 3, 2)
	// 1e6·D spans about D·2000 periods of the 480-unit supply, each of 24
	// intervals: far more than power.MaxIntervals.
	for _, f := range []float64{1e300, math.Inf(1), math.NaN(), 1e6} {
		if st, err := m.Submit(ctx, SubmitRequest{Workflow: wf, DeadlineFactor: f}); !errors.Is(err, scherr.ErrInvalidRequest) {
			t.Errorf("factor %v: status %+v, err %v; want ErrInvalidRequest", f, st, err)
		}
	}
	clock.Set(math.MaxInt64 - 10)
	if st, err := m.Submit(ctx, SubmitRequest{Workflow: wf}); !errors.Is(err, scherr.ErrInvalidRequest) {
		t.Errorf("now+T past MaxInt64: status %+v, err %v; want ErrInvalidRequest", st, err)
	}
	if g := m.Gauges(); g.SubmittedTotal != 0 || g.LedgerClaims != 0 {
		t.Errorf("gauges = %+v, want nothing submitted", g)
	}
}
