package core

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/ceg"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/schedule"
)

// Parallel local search: the hill climber's accept-first-improvement rule
// is inherently sequential (each accepted move changes the timeline every
// later candidate is judged against), so the round is parallelized
// speculatively. Workers evaluate disjoint slices of the round's scan
// order against replica timelines that lag the authoritative state by
// however many moves have committed since their last sync; a single
// committer consumes results strictly in scan order. A speculative result
// is trusted only if no move committed after the worker's snapshot could
// have influenced it — otherwise the committer re-evaluates that one task
// on the authoritative state. Because commits happen in scan order and a
// stale result is always recomputed, the accepted moves, the final
// schedule, and the Stats counters are bit-identical to the sequential
// scan at every worker count and under any goroutine interleaving. Ties
// break exactly as in the sequential scan: the lowest scan index commits
// first, and FirstImprovingMove returns the earliest improving start.

// lsMove is one committed move, appended to the round's shared log so
// workers can fast-forward their replicas. Entries are published by
// storing the new length into an atomic version counter after the entry
// is written; workers load the counter before reading, which orders the
// accesses (release/acquire).
type lsMove struct {
	v        int
	zone     int
	from, to int64
	dur, p   int64
}

// lsResult is a worker's speculative evaluation of one scan index:
// FirstImprovingMove's answer, the move window it was derived in, and the
// log version the replica was synced to when it was computed.
type lsResult struct {
	cand, gain int64
	lo, hi     int64
	ok         bool
	baseVer    int
}

// lsConflicts reports whether any of the moves committed after a worker's
// snapshot could change the evaluation of task v over the window
// [lo, hiEnd) (hiEnd = hi + dur, the last unit any candidate placement
// touches). A later move matters only if it moved v itself (shifting cur),
// moved a DAG neighbor of v (shifting the window bounds), or re-shaped
// v's own zone timeline inside the window. Everything else is invisible
// to FirstImprovingMove, so the speculative answer is exact.
func lsConflicts(inst *ceg.Instance, zoneOf []int, v int, lo, hiEnd int64, moves []lsMove) bool {
	g := inst.G
	for i := range moves {
		m := &moves[i]
		if m.v == v {
			return true
		}
		if m.zone == zoneOf[v] {
			if m.from < hiEnd && m.from+m.dur > lo {
				return true
			}
			if m.to < hiEnd && m.to+m.dur > lo {
				return true
			}
		}
		for _, ei := range g.InEdges(v) {
			if g.Edges[ei].From == m.v {
				return true
			}
		}
		for _, ei := range g.OutEdges(v) {
			if g.Edges[ei].To == m.v {
				return true
			}
		}
	}
	return false
}

// LocalSearch improves a feasible schedule in place with the hill climber
// of Section 5.3: processors are visited in non-increasing work-power
// order; on each processor, tasks are scanned left to right, and each task
// tries every shift within ±mu time units (earliest candidate first). The
// first legal move with a strictly positive carbon gain is applied. The
// search stops after a full round without any gain. The schedule's cost
// never increases.
//
// There is one power timeline per grid zone, with every task's candidate
// starts enumerated from — and its move gain evaluated on — the timeline
// of its own zone (a move only perturbs the draw of the zone it runs in,
// so the per-zone incremental evaluation is exact). Candidates are
// enumerated by interval jumping rather than unit steps: the gain of a
// shift is piecewise linear in the new start, with slope changes only
// where a task edge crosses a timeline breakpoint or profile boundary, so
// only those O(#breakpoints in window) starts are evaluated (see
// schedule.FirstImprovingMove). The accepted moves — and therefore the
// final schedule — are identical to the unit-step scan's, kept as
// LocalSearchUnitStep for differential testing and benchmarking.
//
// workers ≤ 1 scans sequentially; a larger count runs the speculative
// worker pool described above and produces the identical schedule, cost,
// and Stats — the parallelism is an implementation detail, never a
// semantic knob (which is why the solver normalizes it out of its cache
// keys).
//
// The context is polled every ctxCheckStride task scans (in the committer
// when parallel); on cancellation the schedule is left at the last
// accepted move (still feasible — every accepted move preserves
// feasibility) and a scherr.ErrCanceled-wrapping error is returned, so
// cancellation takes effect well within one round.
func LocalSearch(ctx context.Context, inst *ceg.Instance, zs *power.ZoneSet, s *schedule.Schedule, mu int64, workers int, st *Stats) error {
	if workers <= 1 {
		return localSearchSeq(ctx, inst, zs, s, mu, st)
	}
	if err := schedule.CheckZones(inst, zs); err != nil {
		return err
	}
	T := zs.T()
	tls := schedule.NewZoneTimelines(inst, s, zs)

	// Flattened scan order — identical to the sequential nested loops
	// (processors by non-increasing work power, tasks left to right).
	seq := make([]int, 0, inst.N())
	for _, p := range powerOrder(inst) {
		seq = append(seq, inst.Order[p]...)
	}
	n := len(seq)
	if n == 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	zoneOf := make([]int, inst.N())
	for v := range zoneOf {
		zoneOf[v] = schedule.NodeZone(inst, zs, v)
	}

	// Shared per-round move log. Each task is scanned once per round, so
	// at most n moves commit; the log never reallocates mid-round.
	log := make([]lsMove, n)
	var ver atomic.Int64

	// conflictReevals counts speculative results the committer had to
	// recompute on the authoritative state. The count depends on goroutine
	// timing, so it is reported only through the observability layer —
	// never in Stats, which is pinned bit-identical across worker counts.
	conflictReevals := 0
	scans := 0
	for {
		improved := false
		if st != nil {
			st.LSRounds++
		}
		ver.Store(0)

		// Spawn the round's workers over replicas snapshotted before any
		// of this round's commits. Result channels are buffered to the
		// worker's full index count, so sends never block and a canceled
		// round can abandon the channels without draining them.
		done := make(chan struct{})
		outs := make([]chan lsResult, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			count := (n - w + workers - 1) / workers
			out := make(chan lsResult, count)
			outs[w] = out
			starts := append([]int64(nil), s.Start...)
			rtls := tls.Clone()
			wg.Add(1)
			go func(w int, starts []int64, rtls *schedule.ZoneTimelines, out chan<- lsResult) {
				defer wg.Done()
				defer close(out)
				synced := 0
				for idx := w; idx < n; idx += workers {
					select {
					case <-done:
						return
					default:
					}
					// Fast-forward the replica over every move committed
					// since the last sync.
					for v := int(ver.Load()); synced < v; synced++ {
						m := &log[synced]
						rtls.Zone(m.zone).ApplyMove(m.from, m.to, m.dur, m.p)
						starts[m.v] = m.to
					}
					u := seq[idx]
					lo, hi := moveWindowStarts(inst, starts, u, T, mu)
					_, work := inst.ProcPower(u)
					cand, gain, ok := rtls.Zone(zoneOf[u]).FirstImprovingMove(starts[u], lo, hi, inst.Dur[u], work)
					out <- lsResult{cand: cand, gain: gain, lo: lo, hi: hi, ok: ok, baseVer: synced}
				}
			}(w, starts, rtls, out)
		}

		commit := 0
		var roundErr error
		for idx := 0; idx < n; idx++ {
			if scans%ctxCheckStride == 0 {
				if err := canceled(ctx); err != nil {
					roundErr = err
					break
				}
			}
			scans++
			if st != nil {
				st.LSScans++
			}
			r, chOK := <-outs[idx%workers]
			if !chOK {
				// Unreachable before close(done): every worker sends one
				// result per assigned index before closing its channel.
				break
			}
			v := seq[idx]
			cand, gain, ok := r.cand, r.gain, r.ok
			if r.baseVer < commit && lsConflicts(inst, zoneOf, v, r.lo, r.hi+inst.Dur[v], log[r.baseVer:commit]) {
				// A later commit invalidated the speculation; re-evaluate
				// this one task on the authoritative state.
				conflictReevals++
				lo, hi := moveWindow(inst, s, v, T, mu)
				_, work := inst.ProcPower(v)
				cand, gain, ok = tls.Zone(zoneOf[v]).FirstImprovingMove(s.Start[v], lo, hi, inst.Dur[v], work)
			}
			if ok {
				dur := inst.Dur[v]
				_, work := inst.ProcPower(v)
				tls.Zone(zoneOf[v]).ApplyMove(s.Start[v], cand, dur, work)
				log[commit] = lsMove{v: v, zone: zoneOf[v], from: s.Start[v], to: cand, dur: dur, p: work}
				s.Start[v] = cand
				commit++
				ver.Store(int64(commit))
				improved = true
				if st != nil {
					st.LSMoves++
					st.LSGain += gain
				}
			}
		}
		close(done)
		wg.Wait()
		if roundErr != nil {
			return roundErr
		}
		if !improved {
			if sp := obs.SpanFrom(ctx); sp != nil {
				sp.SetAttr("zones", tls.NumZones())
				sp.SetAttr("dense_zones", tls.DenseZones())
				sp.SetAttr("conflict_reevals", conflictReevals)
			}
			obs.MeterFrom(ctx).Counter("schedd_search_conflict_reevals_total",
				"speculative local-search results recomputed after a conflicting commit").
				With().Add(int64(conflictReevals))
			return nil
		}
		tls.Compact()
	}
}
