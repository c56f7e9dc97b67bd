package tenancy

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"testing"

	cawosched "repro"
	"repro/internal/power"
	"repro/internal/rng"
	"repro/internal/scherr"
)

// The fixed churn trace: the op mix of the admit_churn_60 benchmark
// workload (7 submits, 1 cancel, 1 rebalance and 1 get per block of 10,
// shuffled within the block) over 60-task workflows with deadline factor
// 30, on a 2-zone cluster whose clock advances a fixed step before every
// op. Long deadlines against a short step keep a few hundred claims live
// while most of the history has already finished.
const (
	churnSubmit = iota
	churnCancel
	churnRebalance
	churnGet
)

const (
	churnOps    = 400
	churnTasks  = 60
	churnShapes = 4   // distinct workflows the submits cycle through
	churnFactor = 30  // deadline factor of every submission
	churnStep   = 200 // model time units the clock advances before each op
	churnWindow = 16  // cancel and get pick among this many latest admissions
)

type churnOp struct {
	class int
	pick  int // submit: which workflow; cancel, get: which of the latest admissions
}

func churnTrace(seed uint64) []churnOp {
	r := rng.New(seed)
	block := []int{churnSubmit, churnSubmit, churnSubmit, churnSubmit, churnSubmit, churnSubmit, churnSubmit,
		churnCancel, churnRebalance, churnGet}
	var ops []churnOp
	for len(ops) < churnOps {
		r.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, class := range block {
			ops = append(ops, churnOp{class: class, pick: r.Intn(churnWindow)})
		}
	}
	// Cancel and get need an admission to name: the trace opens with one.
	for i, op := range ops {
		if op.class == churnSubmit {
			ops[0], ops[i] = ops[i], ops[0]
			break
		}
	}
	return ops
}

// churnResult is what one op of the trace did.
type churnResult struct {
	i      int
	op     churnOp
	now    int64
	target string          // cancel, get: the workflow named
	prev   *WorkflowStatus // cancel: the target's status just before
	status *WorkflowStatus // submit, cancel, get
	report RebalanceReport // rebalance
	err    error
}

// replayChurn runs the fixed churn trace through m and calls after once
// each op has returned.
func replayChurn(t testing.TB, m *Manager, clock *SimClock, after func(churnResult)) {
	t.Helper()
	ctx := context.Background()
	wfs := make([]*cawosched.DAG, churnShapes)
	for s := range wfs {
		wfs[s] = testWorkflow(t, churnTasks, uint64(s)+1)
	}
	var admitted []string
	for i, op := range churnTrace(26) {
		now := clock.Advance(churnStep)
		r := churnResult{i: i, op: op, now: now}
		if n := len(admitted); n > 0 {
			r.target = admitted[n-1-op.pick%min(churnWindow, n)]
		}
		switch op.class {
		case churnSubmit:
			r.status, r.err = m.Submit(ctx, SubmitRequest{Workflow: wfs[op.pick%churnShapes], DeadlineFactor: churnFactor})
			if r.err == nil {
				admitted = append(admitted, r.status.ID)
			} else if !errors.Is(r.err, scherr.ErrAdmissionRejected) {
				t.Fatalf("op %d: submit: %v", i, r.err)
			}
		case churnCancel:
			if r.prev, r.err = m.Get(r.target); r.err != nil {
				t.Fatalf("op %d: get %s: %v", i, r.target, r.err)
			}
			r.status, r.err = m.Cancel(r.target)
		case churnRebalance:
			r.report, r.err = m.Rebalance(ctx)
		case churnGet:
			r.status, r.err = m.Get(r.target)
		}
		if op.class != churnSubmit && r.err != nil {
			t.Fatalf("op %d (class %d): %v", i, op.class, r.err)
		}
		after(r)
	}
}

// TestManagerChurnPinned pins what the fixed churn trace produces: the
// placement history, the gauges, and every status an op returned,
// finished and truncated claims included. How the ledger stores
// reservations internally must not move any of them.
func TestManagerChurnPinned(t *testing.T) {
	m, clock := testManager(t, 7, 2)
	statuses := sha256.New()
	var truncated, finished, rejected int
	replayChurn(t, m, clock, func(r churnResult) {
		fmt.Fprintf(statuses, "%d %d %d %s %v %+v", r.i, r.op.class, r.now, r.target, r.err, r.report)
		if r.status != nil {
			fmt.Fprintf(statuses, " %+v", *r.status)
		}
		fmt.Fprintln(statuses)
		if r.err != nil {
			rejected++
		}
		if r.op.class == churnGet && r.status.State == StateCompleted && len(r.status.Claims) > 0 {
			finished++
		}
		if r.op.class == churnCancel && r.prev.State == StateRunning {
			for _, c := range r.prev.Claims {
				if c.Start < r.now && r.now < c.End {
					truncated++
				}
			}
		}
	})
	// The trace must reach the cases the pins are there for.
	if finished == 0 || truncated == 0 {
		t.Errorf("trace got %d completed gets with claims and %d truncated claims; want both > 0", finished, truncated)
	}

	hist, err := json.Marshal(m.History())
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(hist)
	if got, want := hex.EncodeToString(sum[:]), "d94dc086ca294c877405bded8015b317eefaab413bb24599e06198b45be46ca5"; got != want {
		t.Errorf("history digest = %s, want %s", got, want)
	}
	if got, want := hex.EncodeToString(statuses.Sum(nil)), "2ad410675cc07d9418ac61d37b2bd0195c6599012f23353b4927022a3d25092f"; got != want {
		t.Errorf("status digest = %s, want %s", got, want)
	}
	g := m.Gauges()
	g.LedgerClaims = 0 // the one gauge that depends on how the ledger stores history
	want := Gauges{
		Admitted: 2, Running: 2, Completed: 252, Canceled: 15,
		SubmittedTotal: 271, RejectedTotal: 9, CanceledTotal: 15,
		RebalancePasses: 40, RebalanceMoves: 17,
		LedgerReservedUnits: 180159,
		AdmittedCostUnits:   7732699, PlacementCostUnits: 7317297, SavedUnits: 95469,
	}
	if g != want {
		t.Errorf("gauges = %+v\nwant     %+v", g, want)
	}
	t.Logf("ledger claims %d, rejected %d, finished gets %d, truncated %d", m.Ledger().NumClaims(), rejected, finished, truncated)
}

// ledgerTwin is the brute-force reference for the compacting ledger: it
// keeps every claim ever committed, never compacts, and replays the
// manager's commits and releases from its history.
type ledgerTwin struct {
	ledger *Ledger            // never compacted
	owned  map[string][]Claim // per owner, sorted by (proc, start)
}

func (tw *ledgerTwin) commit(t testing.TB, owner string, claims []Claim) {
	t.Helper()
	if err := tw.ledger.Commit(owner, claims); err != nil {
		t.Fatalf("twin commit %s: %v", owner, err)
	}
	tw.owned[owner] = claims
}

func (tw *ledgerTwin) release(owner string, at int64) {
	tw.ledger.ReleaseFrom(owner, tw.owned[owner], at)
	var kept []Claim
	for _, c := range tw.owned[owner] {
		if c.End = cut(c.Start, c.End, at); c.End > c.Start {
			kept = append(kept, c)
		}
	}
	tw.owned[owner] = kept
}

// residual prices the window [from, from+T) unit by unit against every
// claim ever committed, merging equal neighbours into intervals.
func (tw *ledgerTwin) residual(supply *power.ZoneSet, zoneOf func(int) int, from, T int64) [][]power.Interval {
	demand := make([][]int64, supply.NumZones())
	for z := range demand {
		demand[z] = make([]int64, T)
	}
	for _, claims := range tw.owned {
		for _, c := range claims {
			for u := max(c.Start, from); u < min(c.End, from+T); u++ {
				demand[zoneOf(c.Proc)][u-from] += c.Work
			}
		}
	}
	out := make([][]power.Interval, len(demand))
	for z, d := range demand {
		base := supply.Profile(z)
		for u := int64(0); u < T; u++ {
			budget := max(0, base.BudgetAt((from+u)%base.T())-d[u])
			if n := len(out[z]); n > 0 && out[z][n-1].Budget == budget {
				out[z][n-1].End++
			} else {
				out[z] = append(out[z], power.Interval{Start: u, End: u + 1, Budget: budget})
			}
		}
	}
	return out
}

// TestLedgerCompactionMatchesTwin replays the churn trace and checks,
// after every op, that the compacted ledger answers exactly like a twin
// that forgets nothing: the residual supply interval by interval, the
// offset search for the last admission's claims shifted to now, the
// busy and reserved totals, and every status's claims.
func TestLedgerCompactionMatchesTwin(t *testing.T) {
	m, clock := testManager(t, 7, 2)
	zoneOf := m.solver.Cluster().ZoneOf
	tw := &ledgerTwin{ledger: NewLedger(), owned: make(map[string][]Claim)}
	seen := 0
	var last *WorkflowStatus
	replayChurn(t, m, clock, func(r churnResult) {
		hist := m.History()
		for _, e := range hist[seen:] {
			switch e.Kind {
			case "cancel":
				tw.release(e.ID, e.Time)
			case "rebalance":
				tw.release(e.ID, 0)
				fallthrough
			case "admit":
				st, err := m.Get(e.ID)
				if err != nil {
					t.Fatal(err)
				}
				tw.commit(t, e.ID, st.Claims)
			}
		}
		seen = len(hist)
		if r.op.class == churnSubmit && r.err == nil {
			last = r.status
		}
		if r.status != nil && !slices.Equal(r.status.Claims, tw.owned[r.status.ID]) {
			t.Fatalf("op %d: %s claims %v, twin %v", r.i, r.status.ID, r.status.Claims, tw.owned[r.status.ID])
		}
		if err := m.Ledger().Audit(); err != nil {
			t.Fatalf("op %d: %v", r.i, err)
		}
		if got, want := m.Ledger().BusyUnits(0), tw.ledger.BusyUnits(0); got != want {
			t.Fatalf("op %d: busy units %d, twin %d", r.i, got, want)
		}
		if got, want := m.Ledger().ReservedUnits(), tw.ledger.ReservedUnits(); got != want {
			t.Fatalf("op %d: reserved units %d, twin %d", r.i, got, want)
		}

		window := last.Deadline - last.SubmittedAt
		res, err := m.Ledger().Residual(m.Supply(), zoneOf, r.now, window)
		if err != nil {
			t.Fatalf("op %d: residual: %v", r.i, err)
		}
		for z, want := range tw.residual(m.Supply(), zoneOf, r.now, window) {
			if got := res.Profile(z).Intervals; !slices.Equal(got, want) {
				t.Fatalf("op %d: zone %d residual over [%d, +%d):\n got %v\nwant %v", r.i, z, r.now, window, got, want)
			}
		}

		shifted := make([]Claim, len(last.Claims))
		for i, c := range last.Claims {
			d := r.now - last.SubmittedAt
			shifted[i] = Claim{Proc: c.Proc, Start: c.Start + d, End: c.End + d, Work: c.Work}
		}
		delta, ok, err := m.Ledger().FindOffset(shifted, r.now+window)
		wantDelta, wantOK, wantErr := tw.ledger.FindOffset(shifted, r.now+window)
		if err != nil || wantErr != nil || delta != wantDelta || ok != wantOK {
			t.Fatalf("op %d: FindOffset = (%d, %v, %v), twin (%d, %v, %v)", r.i, delta, ok, err, wantDelta, wantOK, wantErr)
		}
	})
	// Compaction happened: the live set is a small part of the history.
	if live, total := m.Ledger().NumClaims(), tw.ledger.NumClaims(); live*10 > total {
		t.Errorf("%d live reservations of %d committed: compaction did not keep up", live, total)
	}
}

// rewindClock is a Clock a test sets by hand, backwards included.
type rewindClock struct{ t int64 }

func (c *rewindClock) Now() int64 { return c.t }

// TestLedgerRefusesWindowBeforeHorizon: once Compact(h) has dropped what
// ended by h, a window starting before h would be priced without that
// work, so every query over one fails instead.
func TestLedgerRefusesWindowBeforeHorizon(t *testing.T) {
	supply, err := power.NewZoneSet(power.Zone{Name: "a", Profile: &power.Profile{Intervals: []power.Interval{{Start: 0, End: 20, Budget: 10}}}})
	if err != nil {
		t.Fatal(err)
	}
	zoneOf := func(int) int { return 0 }
	l := NewLedger()
	if err := l.Commit("a", []Claim{{Proc: 0, Start: 0, End: 10, Work: 4}, {Proc: 0, Start: 12, End: 20, Work: 4}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(11); err != nil {
		t.Fatal(err)
	}
	early := []Claim{{Proc: 1, Start: 5, End: 8, Work: 1}}
	if _, err := l.Residual(supply, zoneOf, 5, 10); !errors.Is(err, errBeforeHorizon) {
		t.Errorf("Residual before the horizon: %v", err)
	}
	if _, _, err := l.FindOffset(early, 100); !errors.Is(err, errBeforeHorizon) {
		t.Errorf("FindOffset before the horizon: %v", err)
	}
	if err := l.Commit("b", early); !errors.Is(err, errBeforeHorizon) {
		t.Errorf("Commit before the horizon: %v", err)
	}
	if err := l.Compact(10); !errors.Is(err, errBeforeHorizon) {
		t.Errorf("Compact below the horizon: %v", err)
	}
	// At the horizon everything works again.
	if _, err := l.Residual(supply, zoneOf, 11, 10); err != nil {
		t.Error(err)
	}
	if err := l.Commit("b", []Claim{{Proc: 1, Start: 11, End: 14, Work: 1}}); err != nil {
		t.Error(err)
	}
}

// TestManagerClockSteppingBack: a clock that runs backwards makes every
// state transition fail with the horizon error and change nothing.
func TestManagerClockSteppingBack(t *testing.T) {
	m, _ := testManager(t, 3, 2)
	clock := &rewindClock{t: 500}
	m.clock = clock
	ctx := context.Background()
	st, err := m.Submit(ctx, SubmitRequest{Workflow: testWorkflow(t, 40, 7), DeadlineFactor: 4})
	if err != nil {
		t.Fatal(err)
	}
	clock.t = 400
	if _, err := m.Submit(ctx, SubmitRequest{Workflow: testWorkflow(t, 40, 7), DeadlineFactor: 4}); !errors.Is(err, errBeforeHorizon) {
		t.Errorf("Submit after the clock stepped back: %v", err)
	}
	if _, err := m.Cancel(st.ID); !errors.Is(err, errBeforeHorizon) {
		t.Errorf("Cancel after the clock stepped back: %v", err)
	}
	if _, err := m.Rebalance(ctx); !errors.Is(err, errBeforeHorizon) {
		t.Errorf("Rebalance after the clock stepped back: %v", err)
	}
	got, err := m.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Claims, st.Claims) || len(m.History()) != 1 {
		t.Errorf("a refused transition changed state: claims %v -> %v, history %+v", st.Claims, got.Claims, m.History())
	}
	if err := m.Ledger().Audit(); err != nil {
		t.Fatal(err)
	}
}
