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
// have influenced it (lsSettled.changedSince, the rule the scans also skip
// settled tasks by) — otherwise the committer re-evaluates that one task
// on the authoritative state. A task that was settled when the round began
// is the cheapest speculation of all: workers do not evaluate it, and the
// committer does only if a commit of this round unsettled it. Because
// commits happen in scan order and a stale result is always recomputed,
// the accepted moves, the final schedule, and the Stats counters are
// bit-identical to the sequential scan at every worker count and under any
// goroutine interleaving. Ties break exactly as in the sequential scan:
// the lowest scan index commits first, and FirstImprovingMove returns the
// earliest improving start.

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

	seq := scanOrder(inst)
	n := len(seq)
	if n == 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	settled := newLSSettled(inst, zs)
	zoneOf := settled.zoneOf

	// Shared per-round move log. Each task is scanned once per round, so
	// at most n moves commit; the log never reallocates mid-round.
	log := make([]lsMove, n)
	var ver atomic.Int64

	// skipped[idx] is set for the scan indices whose task is settled when
	// the round begins. Written between rounds only, read by the workers.
	skipped := make([]bool, n)

	// conflictReevals counts speculative results — a worker's evaluation or
	// a round-start skip — that the committer had to recompute on the
	// authoritative state, evals every evaluation it consumed or made. Both
	// depend on goroutine timing, so they are reported only through the
	// observability layer — never in Stats, which is pinned bit-identical
	// across worker counts.
	conflictReevals, evals := 0, 0

	// evaluate is the committer's own evaluation, on the authoritative state.
	evaluate := func(v int) lsResult {
		evals++
		return evaluateMove(inst, tls.Zone(zoneOf[v]), s, v, T, mu)
	}
	scans := 0
	for {
		improved := false
		if st != nil {
			st.LSRounds++
		}
		ver.Store(0)
		roundBase := settled.commits
		for idx, v := range seq {
			skipped[idx] = settled.skip(v)
		}

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
					if skipped[idx] {
						continue
					}
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
					out <- lsResult{cand: cand, gain: gain, lo: lo, hi: hi, ok: ok, base: roundBase + synced}
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
			v := seq[idx]
			var r lsResult
			if skipped[idx] {
				if settled.skip(v) {
					continue
				}
				// A commit of this round unsettled the task.
				conflictReevals++
				r = evaluate(v)
			} else {
				var chOK bool
				if r, chOK = <-outs[idx%workers]; !chOK {
					// Unreachable before close(done): every worker sends one
					// result per assigned index before closing its channel.
					break
				}
				evals++
				if settled.changedSince(v, r.base, r.lo, r.hi+inst.Dur[v]) {
					// A later commit invalidated the speculation; re-evaluate
					// this one task on the authoritative state.
					conflictReevals++
					r = evaluate(v)
				}
			}
			dur := inst.Dur[v]
			if !r.ok {
				settled.settle(v, r.lo, r.hi, dur)
				continue
			}
			_, work := inst.ProcPower(v)
			tls.Zone(zoneOf[v]).ApplyMove(s.Start[v], r.cand, dur, work)
			log[commit] = lsMove{v: v, zone: zoneOf[v], from: s.Start[v], to: r.cand, dur: dur, p: work}
			settled.commit(inst, v, s.Start[v], r.cand, dur)
			s.Start[v] = r.cand
			commit++
			ver.Store(int64(commit))
			improved = true
			if st != nil {
				st.LSMoves++
				st.LSGain += r.gain
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
				sp.SetAttr("evals", evals)
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
