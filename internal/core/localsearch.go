package core

import (
	"cmp"
	"context"
	"slices"

	"repro/internal/ceg"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/schedule"
)

// scanOrder returns the visit order of the Section 5.3 hill climber, one
// round of it: processors by non-increasing P_work, ties by id, and on
// each processor its tasks left to right.
func scanOrder(inst *ceg.Instance) []int {
	procs := make([]int, 0, len(inst.Order))
	for p := range inst.Order {
		procs = append(procs, p)
	}
	slices.SortFunc(procs, func(p, q int) int {
		if c := cmp.Compare(inst.Cluster.Proc(q).Type.Work, inst.Cluster.Proc(p).Type.Work); c != 0 {
			return c
		}
		return cmp.Compare(p, q)
	})
	seq := make([]int, 0, inst.N())
	for _, p := range procs {
		seq = append(seq, inst.Order[p]...)
	}
	return seq
}

// moveWindow returns the legal shift window [lo, hi] for task v: bounded
// by the finish times of its predecessors, the start times of its
// successors, the horizon, and the ±mu search radius around the current
// start.
func moveWindow(inst *ceg.Instance, s *schedule.Schedule, v int, T, mu int64) (lo, hi int64) {
	return moveWindowStarts(inst, s.Start, v, T, mu)
}

// moveWindowStarts is moveWindow against a bare start-time slice, so the
// speculative search workers can evaluate windows on their replica
// snapshots without materializing a Schedule.
func moveWindowStarts(inst *ceg.Instance, start []int64, v int, T, mu int64) (lo, hi int64) {
	g := inst.G
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

// lsResult is one evaluation of a task: FirstImprovingMove's answer and the
// move window it was derived in. base is set on a worker's speculative
// evaluation only: the commit (numbered as lsSettled numbers them) its
// replica was synced to.
type lsResult struct {
	cand, gain int64
	lo, hi     int64
	ok         bool
	base       int
}

// evaluateMove is FirstImprovingMove for v on the schedule s and the
// timeline tl of v's zone.
func evaluateMove(inst *ceg.Instance, tl *schedule.Timeline, s *schedule.Schedule, v int, T, mu int64) lsResult {
	lo, hi := moveWindow(inst, s, v, T, mu)
	_, work := inst.ProcPower(v)
	cand, gain, ok := tl.FirstImprovingMove(s.Start[v], lo, hi, inst.Dur[v], work)
	return lsResult{cand: cand, gain: gain, lo: lo, hi: hi, ok: ok}
}

// localSearchSeq is the sequential scan of LocalSearch (workers ≤ 1): no
// replicas, no move log, one timeline per zone updated in place. A visit
// to a task whose last evaluation found no move and still stands (see
// lsSettled) is a scan like any other — it counts in LSScans and advances
// the context poll — but costs no evaluation.
func localSearchSeq(ctx context.Context, inst *ceg.Instance, zs *power.ZoneSet, s *schedule.Schedule, mu int64, st *Stats) error {
	if err := schedule.CheckZones(inst, zs); err != nil {
		return err
	}
	T := zs.T()
	tls := schedule.NewZoneTimelines(inst, s, zs)
	seq := scanOrder(inst)
	settled := newLSSettled(inst, zs)
	scans, evals := 0, 0
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
			evals++
			dur := inst.Dur[v]
			tl := tls.Zone(settled.zoneOf[v])
			r := evaluateMove(inst, tl, s, v, T, mu)
			if !r.ok {
				settled.settle(v, r.lo, r.hi, dur)
				continue
			}
			_, work := inst.ProcPower(v)
			tl.ApplyMove(s.Start[v], r.cand, dur, work)
			settled.commit(inst, v, s.Start[v], r.cand, dur)
			s.Start[v] = r.cand
			improved = true
			if st != nil {
				st.LSMoves++
				st.LSGain += r.gain
			}
		}
		if !improved {
			if sp := obs.SpanFrom(ctx); sp != nil {
				sp.SetAttr("zones", tls.NumZones())
				sp.SetAttr("dense_zones", tls.DenseZones())
				sp.SetAttr("evals", evals)
			}
			return nil
		}
		tls.Compact()
	}
}

// LocalSearchUnitStep is the original O(mu) candidate scan: every integer
// shift in the ±mu window is probed left to right. It accepts exactly the
// same moves as LocalSearch and is retained as the reference
// implementation for the equivalence property test and the
// BenchmarkLocalSearch speedup baseline.
func LocalSearchUnitStep(ctx context.Context, inst *ceg.Instance, zs *power.ZoneSet, s *schedule.Schedule, mu int64, st *Stats) error {
	if err := schedule.CheckZones(inst, zs); err != nil {
		return err
	}
	T := zs.T()
	tls := schedule.NewZoneTimelines(inst, s, zs)
	seq := scanOrder(inst)
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
			dur := inst.Dur[v]
			cur := s.Start[v]
			lo, hi := moveWindow(inst, s, v, T, mu)
			_, work := inst.ProcPower(v)
			tl := tls.For(v)
			for cand := lo; cand <= hi; cand++ {
				if cand == cur {
					continue
				}
				if gain := tl.MoveGain(cur, cand, dur, work); gain > 0 {
					tl.ApplyMove(cur, cand, dur, work)
					s.Start[v] = cand
					improved = true
					if st != nil {
						st.LSMoves++
						st.LSGain += gain
					}
					break
				}
			}
		}
		if !improved {
			return nil
		}
		tls.Compact()
	}
}
