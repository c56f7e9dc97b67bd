// Package tenancy turns the per-request solver into a stateful
// multi-tenant scheduler: many workflows, arriving over time, compete for
// the processors of one shared cluster.
//
// The package is built from three pieces:
//
//   - Ledger: a concurrency-safe record of committed reservations — one
//     time-interval claim per scheduled node, per processor. A commit is
//     all-or-nothing and refuses any overlap, so the ledger can never
//     double-book a processor. It holds only what can still matter:
//     reservations that ended before the compaction horizon are dropped,
//     their units kept as per-processor totals.
//   - Residual view: the green power supply minus the power the committed
//     reservations already draw, per grid zone. The existing core/greenheft
//     pipeline solves new workflows against this view unchanged — tenants
//     see less green energy where (and when) others burn it.
//   - Manager: admission control and the rolling-horizon re-solve loop on
//     top of the two (manager.go).
//
// Time is the discrete model-time axis of schedules and profiles; a Clock
// maps "now" onto it (wall clock in schedd, simulated in tests).
package tenancy

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Claim is one committed reservation: node-shaped work occupying a
// processor for [Start, End) in absolute model time, drawing Work power
// while it runs (the processor's work power; its idle floor is priced by
// the owning workflow's cost accounting, not the ledger).
type Claim struct {
	Proc  int   // cluster processor id (compute or link)
	Start int64 // absolute model time, inclusive
	End   int64 // absolute model time, exclusive (End > Start)
	Work  int64 // work power drawn while running (>= 0)
}

// ConflictError reports the first overlap that blocked a commit.
type ConflictError struct {
	Proc         int    // the double-booked processor
	Start, End   int64  // the claim that could not be placed
	Owner        string // who holds the blocking reservation
	BlockedUntil int64  // end of the blocking reservation
}

func (e *ConflictError) Error() string {
	return fmt.Sprintf("tenancy: processor %d busy until %d (held by %s): claim [%d, %d) overlaps",
		e.Proc, e.BlockedUntil, e.Owner, e.Start, e.End)
}

// reservation is one committed claim in a per-processor timeline.
type reservation struct {
	start, end int64
	work       int64
	owner      string
}

// errBeforeHorizon marks a window that starts before the compaction
// horizon, where reservations Compact dropped could still matter.
var errBeforeHorizon = errors.New("tenancy: window starts before the compaction horizon")

// Ledger is the concurrency-safe cluster-state record of committed
// reservations. All methods are safe for concurrent use; Commit is
// atomic (all claims or none).
//
// Only live reservations are stored: Compact(h) drops every reservation
// that ends at or before h and raises the horizon to h. Every query looks
// at a window [from, …) and skips a reservation that ends at or before
// from, so dropping them changes no answer as long as no window starts
// before the horizon; Residual, FindOffset and Commit refuse one that does.
type Ledger struct {
	mu      sync.RWMutex
	procs   map[int][]reservation // per processor, live, sorted by start, non-overlapping
	busy    map[int]int64         // per processor, Σ (end-start) booked, compacted history included
	horizon int64                 // every reservation ending at or before it has been dropped
	claims  int64                 // live reservations
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{
		procs: make(map[int][]reservation),
		busy:  make(map[int]int64),
	}
}

// beforeHorizon refuses a window starting at from when reservations
// Compact dropped could overlap it. Caller holds at least a read lock.
func (l *Ledger) beforeHorizon(from int64) error {
	if from < l.horizon {
		return fmt.Errorf("%w: window starts at %d, horizon is %d", errBeforeHorizon, from, l.horizon)
	}
	return nil
}

// Compact drops every reservation that ends at or before h and raises
// the horizon to h. The dropped units stay in BusyUnits and
// ReservedUnits. It fails when h is below the horizon: model time ran
// backwards.
func (l *Ledger) Compact(h int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.beforeHorizon(h); err != nil {
		return err
	}
	l.horizon = h
	for proc, rs := range l.procs {
		// Non-overlapping and sorted by start, so sorted by end too: the
		// ended reservations are a prefix.
		i := sort.Search(len(rs), func(i int) bool { return rs[i].end > h })
		l.claims -= int64(i)
		if i == len(rs) {
			delete(l.procs, proc)
		} else {
			l.procs[proc] = rs[i:]
		}
	}
	return nil
}

// firstOverlap returns the first reservation on proc overlapping
// [start, end), or nil. Caller holds at least a read lock.
func (l *Ledger) firstOverlap(proc int, start, end int64) *reservation {
	rs := l.procs[proc]
	// First reservation with end > start.
	i := sort.Search(len(rs), func(i int) bool { return rs[i].end > start })
	if i < len(rs) && rs[i].start < end {
		return &rs[i]
	}
	return nil
}

func (l *Ledger) conflictsLocked(claims []Claim, delta int64) *ConflictError {
	for _, c := range claims {
		if c.End <= c.Start {
			continue
		}
		if r := l.firstOverlap(c.Proc, c.Start+delta, c.End+delta); r != nil {
			return &ConflictError{
				Proc: c.Proc, Start: c.Start + delta, End: c.End + delta,
				Owner: r.owner, BlockedUntil: r.end,
			}
		}
	}
	return nil
}

// Commit atomically books every claim for owner. Zero-length claims are
// skipped. On any overlap — with an existing reservation or between the
// new claims themselves — nothing is committed and the ConflictError
// describes the first blocker.
func (l *Ledger) Commit(owner string, claims []Claim) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.conflictsLocked(claims, 0); err != nil {
		return err
	}
	// Overlaps among the new claims themselves (a malformed schedule
	// would be caught by schedule.Validate upstream, but the ledger
	// guards its own invariant).
	byProc := make(map[int][]Claim)
	for _, c := range claims {
		if c.End <= c.Start {
			continue
		}
		if err := l.beforeHorizon(c.Start); err != nil {
			return fmt.Errorf("tenancy: claim on processor %d: %w", c.Proc, err)
		}
		byProc[c.Proc] = append(byProc[c.Proc], c)
	}
	for proc, cs := range byProc {
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		for i := 1; i < len(cs); i++ {
			if cs[i].Start < cs[i-1].End {
				return &ConflictError{Proc: proc, Start: cs[i].Start, End: cs[i].End,
					Owner: owner, BlockedUntil: cs[i-1].End}
			}
		}
	}
	for proc, cs := range byProc {
		rs := l.procs[proc]
		for _, c := range cs {
			i := sort.Search(len(rs), func(i int) bool { return rs[i].start >= c.Start })
			rs = append(rs, reservation{})
			copy(rs[i+1:], rs[i:])
			rs[i] = reservation{start: c.Start, end: c.End, work: c.Work, owner: owner}
			l.claims++
			l.busy[proc] += c.End - c.Start
		}
		l.procs[proc] = rs
	}
	return nil
}

// ReleaseFrom removes owner's share of the timeline from t onward, on the
// processors its claims name: a reservation starting at or after t is
// dropped, and one spanning t is truncated to end at t (the work already
// performed stays booked). It returns the number of proc-time units
// released. Time before the compaction horizon is history: t is raised to
// the horizon.
func (l *Ledger) ReleaseFrom(owner string, claims []Claim, t int64) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	t = max(t, l.horizon)
	var released int64
	for i, c := range claims {
		if i > 0 && claims[i-1].Proc == c.Proc {
			continue // already visited: claims come sorted by proc
		}
		rs := l.procs[c.Proc]
		out := rs[:0]
		for _, r := range rs {
			if r.owner == owner {
				end := cut(r.start, r.end, t)
				released += r.end - end
				l.busy[c.Proc] -= r.end - end
				if end == r.start || end <= l.horizon {
					l.claims-- // released whole, or truncated into history
					continue
				}
				r.end = end
			}
			out = append(out, r)
		}
		l.procs[c.Proc] = out
	}
	return released
}

// cut is ReleaseFrom's rule for a booking [start, end) released from t:
// it returns the end of the part that stays booked, start when none does.
func cut(start, end, t int64) int64 { return max(start, min(end, t)) }

// FindOffset returns the smallest delta >= 0 such that every claim,
// shifted by delta, commits without conflict and no shifted claim ends
// after maxEnd. The search is conflict-driven: each round jumps delta to
// the latest blocking reservation's end, so it terminates after at most
// one round per blocking reservation. ok is false when no such delta
// exists within the deadline; the error reports a claim that starts
// before the compaction horizon.
func (l *Ledger) FindOffset(claims []Claim, maxEnd int64) (delta int64, ok bool, err error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	var latest int64
	for _, c := range claims {
		if c.End > latest {
			latest = c.End
		}
		if c.End > c.Start {
			if err := l.beforeHorizon(c.Start); err != nil {
				return 0, false, err
			}
		}
	}
	for {
		if latest+delta > maxEnd {
			return 0, false, nil
		}
		shift := int64(-1)
		for _, c := range claims {
			if c.End <= c.Start {
				continue
			}
			if r := l.firstOverlap(c.Proc, c.Start+delta, c.End+delta); r != nil {
				// The blocker ends after the shifted start (overlap), so
				// r.end - c.Start > delta: monotone progress.
				if s := r.end - c.Start; s > shift {
					shift = s
				}
			}
		}
		if shift < 0 {
			return delta, true, nil
		}
		delta = shift
	}
}

// NumClaims returns the number of live reservations (ending after the
// compaction horizon).
func (l *Ledger) NumClaims() int64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.claims
}

// ReservedUnits returns the total committed proc-time units (Σ end-start
// over all reservations, past and future, compacted ones included).
func (l *Ledger) ReservedUnits() int64 { return l.BusyUnits(0) }

// BusyUnits returns the proc-time units ever committed and not released
// on processors with id < maxProc (pass the cluster's compute count to
// measure compute utilization; 0 or negative means every processor).
func (l *Ledger) BusyUnits(maxProc int) int64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	var units int64
	for proc, u := range l.busy {
		if maxProc <= 0 || proc < maxProc {
			units += u
		}
	}
	return units
}

// Audit verifies the ledger invariant: every per-processor timeline is
// sorted and strictly non-overlapping, and ends after the compaction
// horizon. It is the test hook behind the "never double-books" guarantee.
func (l *Ledger) Audit() error {
	l.mu.RLock()
	defer l.mu.RUnlock()
	for proc, rs := range l.procs {
		for i, r := range rs {
			if r.end <= r.start {
				return fmt.Errorf("tenancy: processor %d reservation %d empty [%d, %d)", proc, i, r.start, r.end)
			}
			if r.end <= l.horizon {
				return fmt.Errorf("tenancy: processor %d reservation [%d, %d) ended by the horizon %d", proc, r.start, r.end, l.horizon)
			}
			if i > 0 && rs[i-1].end > r.start {
				return fmt.Errorf("tenancy: processor %d reservations overlap: [%d, %d) by %s then [%d, %d) by %s",
					proc, rs[i-1].start, rs[i-1].end, rs[i-1].owner, r.start, r.end, r.owner)
			}
		}
	}
	return nil
}
