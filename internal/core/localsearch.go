package core

import (
	"context"
	"sort"

	"repro/internal/ceg"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/schedule"
)

// powerOrder returns the processors sorted by non-increasing P_work, ties
// by id — the visit order of the Section 5.3 hill climber.
func powerOrder(inst *ceg.Instance) []int {
	procs := make([]int, 0, len(inst.Order))
	for p := range inst.Order {
		procs = append(procs, p)
	}
	sort.Slice(procs, func(i, j int) bool {
		wi := inst.Cluster.Proc(procs[i]).Type.Work
		wj := inst.Cluster.Proc(procs[j]).Type.Work
		if wi != wj {
			return wi > wj
		}
		return procs[i] < procs[j]
	})
	return procs
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

// localSearchSeq is the sequential scan of LocalSearch (workers ≤ 1): no
// replicas, no move log, one timeline per zone updated in place.
func localSearchSeq(ctx context.Context, inst *ceg.Instance, zs *power.ZoneSet, s *schedule.Schedule, mu int64, st *Stats) error {
	if err := schedule.CheckZones(inst, zs); err != nil {
		return err
	}
	T := zs.T()
	tls := schedule.NewZoneTimelines(inst, s, zs)
	procs := powerOrder(inst)
	scans := 0
	for {
		improved := false
		if st != nil {
			st.LSRounds++
		}
		for _, p := range procs {
			for _, v := range inst.Order[p] {
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
				if cand, gain, ok := tl.FirstImprovingMove(cur, lo, hi, dur, work); ok {
					tl.ApplyMove(cur, cand, dur, work)
					s.Start[v] = cand
					improved = true
					if st != nil {
						st.LSMoves++
						st.LSGain += gain
					}
				}
			}
		}
		if !improved {
			if sp := obs.SpanFrom(ctx); sp != nil {
				sp.SetAttr("zones", tls.NumZones())
				sp.SetAttr("dense_zones", tls.DenseZones())
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
	procs := powerOrder(inst)
	scans := 0
	for {
		improved := false
		if st != nil {
			st.LSRounds++
		}
		for _, p := range procs {
			for _, v := range inst.Order[p] {
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
		}
		if !improved {
			return nil
		}
		tls.Compact()
	}
}
