package core

import (
	"cmp"
	"context"
	"slices"

	"repro/internal/ceg"
	"repro/internal/power"
	"repro/internal/schedule"
)

// scanOrder returns the visit order of the Section 5.3 hill climber, one
// round of it: processors by non-increasing P_work, ties by id, and on
// each processor its tasks left to right.
func scanOrder(inst *ceg.Instance) []int {
	type proc struct {
		work int64
		id   int
	}
	procs := make([]proc, 0, len(inst.Order))
	for p := range inst.Order {
		procs = append(procs, proc{inst.Cluster.Proc(p).Type.Work, p})
	}
	slices.SortFunc(procs, func(p, q proc) int {
		if c := cmp.Compare(q.work, p.work); c != 0 {
			return c
		}
		return cmp.Compare(p.id, q.id)
	})
	seq := make([]int, 0, inst.N())
	for _, p := range procs {
		seq = append(seq, inst.Order[p.id]...)
	}
	return seq
}

// moveWindow returns the legal shift window [lo, hi] for task v: bounded
// by the finish times of its predecessors, the start times of its
// successors, the horizon, and the ±mu search radius around the current
// start.
func moveWindow(inst *ceg.Instance, s *schedule.Schedule, v int, T, mu int64) (lo, hi int64) {
	g := inst.G
	start := s.Start
	dur := inst.Dur[v]
	cur := start[v]
	lo = 0
	for _, ei := range g.InEdges(v) {
		e := g.Edges[ei]
		if f := start[e.From] + inst.Dur[e.From]; f > lo {
			lo = f
		}
	}
	hi = T - dur
	for _, ei := range g.OutEdges(v) {
		e := g.Edges[ei]
		if l := start[e.To] - dur; l < hi {
			hi = l
		}
	}
	if lo < cur-mu {
		lo = cur - mu
	}
	if hi > cur+mu {
		hi = cur + mu
	}
	return lo, hi
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
// so the per-zone incremental evaluation is exact). The shifts are not
// probed one by one: schedule.FirstImprovingMove slides the task's cost
// across its window in O(1) per unit start. The accepted moves — and
// therefore the final schedule — are identical to the unit-step scan's,
// which the tests keep as their oracle (unitstep_test.go).
//
// A visit to a task whose last evaluation found no move and still stands
// (see lsSettled) is a scan like any other — it counts in LSScans and
// advances the context poll — but costs no evaluation: only the others
// count in LSEvals.
//
// The context is polled every ctxCheckStride task scans; on cancellation
// the schedule is left at the last accepted move (still feasible — every
// accepted move preserves feasibility) and a scherr.ErrCanceled-wrapping
// error is returned, so cancellation takes effect well within one round.
func LocalSearch(ctx context.Context, inst *ceg.Instance, zs *power.ZoneSet, s *schedule.Schedule, mu int64, st *Stats) error {
	if err := schedule.CheckZones(inst, zs); err != nil {
		return err
	}
	T := zs.T()
	tls := schedule.NewZoneTimelines(inst, s, zs)
	defer tls.Release()
	seq := scanOrder(inst)
	settled := newLSSettled(inst, zs)
	scans := 0
	for {
		improved := false
		if st != nil {
			st.LSRounds++
		}
		for _, v := range seq {
			if scans%ctxCheckStride == 0 {
				if err := canceled(ctx); err != nil {
					return err
				}
			}
			scans++
			if st != nil {
				st.LSScans++
			}
			if settled.skip(v) {
				continue
			}
			if st != nil {
				st.LSEvals++
			}
			dur := inst.Dur[v]
			cur := s.Start[v]
			lo, hi := moveWindow(inst, s, v, T, mu)
			_, work := inst.ProcPower(v)
			tl := tls.Zone(settled.zoneOf[v])
			cand, gain, ok := tl.FirstImprovingMove(cur, lo, hi, dur, work)
			if !ok {
				settled.settle(v, lo, hi, dur)
				continue
			}
			tl.ApplyMove(cur, cand, dur, work)
			settled.commit(inst, v, cur, cand, dur)
			s.Start[v] = cand
			improved = true
			if st != nil {
				st.LSMoves++
				st.LSGain += gain
			}
		}
		if !improved {
			return nil
		}
		tls.Compact()
	}
}
