package tenancy

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/power"
	"repro/internal/rng"
)

// ownerClaims lists owner's live reservations, sorted by (proc, start).
func ownerClaims(l *Ledger, owner string) []Claim {
	l.mu.RLock()
	defer l.mu.RUnlock()
	var out []Claim
	for proc, rs := range l.procs {
		for _, r := range rs {
			if r.owner == owner {
				out = append(out, Claim{Proc: proc, Start: r.start, End: r.end, Work: r.work})
			}
		}
	}
	return byProcStart(out)
}

func TestLedgerCommitRejectsOverlapAtomically(t *testing.T) {
	l := NewLedger()
	if err := l.Commit("a", []Claim{
		{Proc: 0, Start: 0, End: 10, Work: 5},
		{Proc: 1, Start: 5, End: 15, Work: 3},
	}); err != nil {
		t.Fatal(err)
	}
	if n := l.NumClaims(); n != 2 {
		t.Fatalf("NumClaims = %d, want 2", n)
	}
	if u := l.ReservedUnits(); u != 20 {
		t.Fatalf("ReservedUnits = %d, want 20", u)
	}

	// One claim fits, the other overlaps: nothing must land.
	err := l.Commit("b", []Claim{
		{Proc: 2, Start: 0, End: 4, Work: 1},
		{Proc: 0, Start: 8, End: 12, Work: 1},
	})
	var conflict *ConflictError
	if !errors.As(err, &conflict) {
		t.Fatalf("Commit = %v, want ConflictError", err)
	}
	if conflict.Proc != 0 || conflict.Owner != "a" || conflict.BlockedUntil != 10 {
		t.Errorf("conflict = %+v", conflict)
	}
	if n := l.NumClaims(); n != 2 {
		t.Errorf("failed commit leaked claims: NumClaims = %d", n)
	}
	if got := ownerClaims(l, "b"); len(got) != 0 {
		t.Errorf("failed commit left owner claims: %v", got)
	}

	// Overlap among the new claims themselves is also refused.
	err = l.Commit("c", []Claim{
		{Proc: 3, Start: 0, End: 5, Work: 1},
		{Proc: 3, Start: 4, End: 8, Work: 1},
	})
	if !errors.As(err, &conflict) {
		t.Fatalf("self-overlapping commit = %v, want ConflictError", err)
	}
	if err := l.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestLedgerCommitSelfConflictIsDeterministic commits claims that overlap
// among themselves on two processors, the higher one listed first. The
// ConflictError must name the lower processor on every attempt: a commit
// that checked its claims in map order would name either, at random.
func TestLedgerCommitSelfConflictIsDeterministic(t *testing.T) {
	claims := []Claim{
		{Proc: 7, Start: 0, End: 5, Work: 1},
		{Proc: 7, Start: 3, End: 9, Work: 1},
		{Proc: 2, Start: 10, End: 20, Work: 1},
		{Proc: 2, Start: 12, End: 14, Work: 1},
	}
	for attempt := 0; attempt < 32; attempt++ {
		l := NewLedger()
		var conflict *ConflictError
		if err := l.Commit("a", claims); !errors.As(err, &conflict) {
			t.Fatalf("attempt %d: Commit = %v, want ConflictError", attempt, err)
		}
		want := ConflictError{Proc: 2, Start: 12, End: 14, Owner: "a", BlockedUntil: 20}
		if *conflict != want {
			t.Fatalf("attempt %d: conflict %+v, want %+v", attempt, *conflict, want)
		}
		if n := l.NumClaims(); n != 0 {
			t.Fatalf("attempt %d: failed commit left %d claims", attempt, n)
		}
	}
}

func TestLedgerReleaseFromTruncatesAtT(t *testing.T) {
	l := NewLedger()
	a := []Claim{
		{Proc: 0, Start: 0, End: 10, Work: 5},  // spans t=6: truncated
		{Proc: 0, Start: 20, End: 30, Work: 5}, // future: dropped
		{Proc: 1, Start: 0, End: 4, Work: 2},   // past: kept
	}
	if err := l.Commit("a", a); err != nil {
		t.Fatal(err)
	}
	released := l.ReleaseFrom("a", a, 6)
	if want := int64((10 - 6) + (30 - 20)); released != want {
		t.Errorf("released = %d, want %d", released, want)
	}
	claims := ownerClaims(l, "a")
	want := []Claim{{Proc: 0, Start: 0, End: 6, Work: 5}, {Proc: 1, Start: 0, End: 4, Work: 2}}
	if len(claims) != len(want) {
		t.Fatalf("owner claims = %v, want %v", claims, want)
	}
	for i := range want {
		if claims[i] != want[i] {
			t.Errorf("claim %d = %+v, want %+v", i, claims[i], want[i])
		}
	}
	// The freed slot is bookable again.
	if err := l.Commit("b", []Claim{{Proc: 0, Start: 6, End: 25, Work: 1}}); err != nil {
		t.Fatal(err)
	}
	// Releasing from the beginning of time leaves nothing.
	l.ReleaseFrom("a", a, math.MinInt64)
	if got := ownerClaims(l, "a"); len(got) != 0 {
		t.Errorf("full release left claims: %v", got)
	}
	if err := l.Audit(); err != nil {
		t.Fatal(err)
	}
}

func TestLedgerFindOffset(t *testing.T) {
	l := NewLedger()
	if err := l.Commit("a", []Claim{
		{Proc: 0, Start: 0, End: 10, Work: 1},
		{Proc: 1, Start: 8, End: 14, Work: 1},
	}); err != nil {
		t.Fatal(err)
	}
	// The shifted set must clear proc 0 until 10 AND proc 1 until 14:
	// delta jumps conflict-driven to 10, then to 14-4=10... proc1 claim
	// [4,6)+10 = [14,16) clears. So delta = 10.
	claims := []Claim{
		{Proc: 0, Start: 0, End: 4, Work: 1},
		{Proc: 1, Start: 4, End: 6, Work: 1},
	}
	delta, ok, err := l.FindOffset(claims, 100)
	if err != nil || !ok || delta != 10 {
		t.Fatalf("FindOffset = (%d, %v, %v), want (10, true, nil)", delta, ok, err)
	}
	// Tight deadline: latest shifted end would be 16 > 12.
	if _, ok, _ := l.FindOffset(claims, 12); ok {
		t.Error("FindOffset fit inside an impossible deadline")
	}
	// No conflicts at all: delta 0.
	if delta, ok, err := l.FindOffset([]Claim{{Proc: 5, Start: 0, End: 3, Work: 1}}, 3); err != nil || !ok || delta != 0 {
		t.Errorf("free slot: FindOffset = (%d, %v, %v), want (0, true, nil)", delta, ok, err)
	}
}

// TestLedgerBusyUnits: the whole-history total per processor range counts
// compacted reservations as well as live ones, and not released units.
func TestLedgerBusyUnits(t *testing.T) {
	l := NewLedger()
	a := []Claim{
		{Proc: 0, Start: 0, End: 10, Work: 1},
		{Proc: 0, Start: 12, End: 30, Work: 1}, // live after Compact(10); half released at 21
		{Proc: 7, Start: 0, End: 10, Work: 1},  // beyond maxProc 4
	}
	if err := l.Commit("a", a); err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(10); err != nil {
		t.Fatal(err)
	}
	if n := l.NumClaims(); n != 1 {
		t.Errorf("NumClaims after Compact(10) = %d, want 1 live", n)
	}
	l.ReleaseFrom("a", byProcStart(a), 21)
	if got := l.BusyUnits(4); got != 10+9 {
		t.Errorf("BusyUnits(4) = %d, want 19", got)
	}
	if got, want := l.BusyUnits(0), int64(10+9+10); got != want || l.ReservedUnits() != want {
		t.Errorf("BusyUnits(0) = %d, ReservedUnits = %d, want %d (all procs)", got, l.ReservedUnits(), want)
	}
}

// TestLedgerConcurrentCommitReleaseAudit is the randomized never-double-
// books test: many goroutines hammer Commit/ReleaseFrom/FindOffset on one
// ledger; under -race every interleaving must preserve the sorted,
// non-overlapping per-processor invariant.
func TestLedgerConcurrentCommitReleaseAudit(t *testing.T) {
	l := NewLedger()
	const G, rounds = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rng.New(uint64(g) + 1)
			for i := 0; i < rounds; i++ {
				owner := fmt.Sprintf("o%d-%d", g, i)
				var claims []Claim
				for k := 0; k < 1+r.Intn(4); k++ {
					start := int64(r.Intn(500))
					claims = append(claims, Claim{
						Proc:  r.Intn(6),
						Start: start,
						End:   start + 1 + int64(r.Intn(20)),
						Work:  int64(r.Intn(10)),
					})
				}
				if delta, ok, _ := l.FindOffset(claims, 5000); ok {
					for j := range claims {
						claims[j].Start += delta
						claims[j].End += delta
					}
					// Another goroutine may have raced the slot away;
					// Commit refusing is fine, double-booking is not.
					_ = l.Commit(owner, claims)
				}
				if r.Intn(3) == 0 {
					l.ReleaseFrom(owner, claims, int64(r.Intn(600)))
				}
				if g == 0 {
					// Commits and searches behind the horizon fail, which
					// is fine; the invariant must hold through it.
					_ = l.Compact(int64(i))
				}
			}
		}(g)
	}
	wg.Wait()
	if err := l.Audit(); err != nil {
		t.Fatal(err)
	}
}

func TestSupplyWindowWrapsPeriodically(t *testing.T) {
	base, err := power.NewZoneSet(power.Zone{
		Name: "a",
		Profile: &power.Profile{Intervals: []power.Interval{
			{Start: 0, End: 6, Budget: 10},
			{Start: 6, End: 10, Budget: 2},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Window [7, 19) over a period-10 profile: the tail of the low band,
	// the full high band of the next period, then the low band again,
	// clipped at T=12.
	w, err := SupplyWindow(base, 7, 12)
	if err != nil {
		t.Fatal(err)
	}
	got := w.Profile(0).Intervals
	want := []power.Interval{
		{Start: 0, End: 3, Budget: 2},
		{Start: 3, End: 9, Budget: 10},
		{Start: 9, End: 12, Budget: 2},
	}
	if len(got) != len(want) {
		t.Fatalf("window intervals = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("interval %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	// A window starting many periods out is identical to the same phase in
	// period zero.
	w2, err := SupplyWindow(base, 7+10*1000, 12)
	if err != nil {
		t.Fatal(err)
	}
	if w.Digest() != w2.Digest() {
		t.Error("periodic window differs across periods")
	}
}

func TestResidualSubtractsCommittedWork(t *testing.T) {
	base, err := power.NewZoneSet(
		power.Zone{Name: "a", Profile: &power.Profile{Intervals: []power.Interval{{Start: 0, End: 20, Budget: 10}}}},
		power.Zone{Name: "b", Profile: &power.Profile{Intervals: []power.Interval{{Start: 0, End: 20, Budget: 7}}}},
	)
	if err != nil {
		t.Fatal(err)
	}
	zoneOf := func(proc int) int { return proc % 2 }
	l := NewLedger()
	if err := l.Commit("a", []Claim{
		{Proc: 0, Start: 5, End: 12, Work: 4},  // zone 0
		{Proc: 2, Start: 10, End: 15, Work: 8}, // zone 0: joint demand 12 > 10 -> floor 0
		{Proc: 1, Start: 0, End: 30, Work: 3},  // zone 1, spans past the window
	}); err != nil {
		t.Fatal(err)
	}
	res, err := l.Residual(base, zoneOf, 0, 20)
	if err != nil {
		t.Fatal(err)
	}
	z0 := res.Profile(0)
	for _, c := range []struct{ t, want int64 }{
		{0, 10}, {5, 6}, {10, 0}, {12, 2}, {15, 10},
	} {
		if got := z0.BudgetAt(c.t); got != c.want {
			t.Errorf("zone 0 budget at %d = %d, want %d", c.t, got, c.want)
		}
	}
	z1 := res.Profile(1)
	for _, tt := range []int64{0, 10, 19} {
		if got := z1.BudgetAt(tt); got != 4 {
			t.Errorf("zone 1 budget at %d = %d, want 4", tt, got)
		}
	}
	// An offset window sees the same claims clipped.
	res2, err := l.Residual(base, zoneOf, 11, 9)
	if err != nil {
		t.Fatal(err)
	}
	if got := res2.Profile(0).BudgetAt(0); got != 0 { // absolute t=11: demand 12
		t.Errorf("offset window zone 0 at 0 = %d, want 0", got)
	}
	if got := res2.Profile(0).BudgetAt(4); got != 10 { // absolute t=15: free
		t.Errorf("offset window zone 0 at 4 = %d, want 10", got)
	}
}
