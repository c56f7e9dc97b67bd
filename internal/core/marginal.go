package core

import (
	"context"
	"sort"

	"repro/internal/ceg"
	"repro/internal/power"
	"repro/internal/schedule"
)

// GreedyMarginal is an alternative greedy that replaces the paper's
// budget-based interval choice (Section 5.2) with the *exact marginal
// carbon cost*: each task (processed in the same score order) starts at
// the candidate position whose incremental cost on the partially built
// power timeline of its grid zone is smallest (ties: earliest). Candidates
// are the same interval beginnings the budget greedy considers — the
// boundaries (and refinement points) of the task's own zone — plus the EST
// fallback.
//
// The budget greedy approximates this quantity through remaining budgets;
// the marginal greedy measures it. It is more expensive per placement —
// O(candidates · timeline window) instead of a chunked max query — and
// exists to quantify how much the budget approximation gives away (see
// experiments.AblationGreedies).
func GreedyMarginal(ctx context.Context, inst *ceg.Instance, zs *power.ZoneSet, opt Options, st *Stats) (*schedule.Schedule, error) {
	if err := schedule.CheckZones(inst, zs); err != nil {
		return nil, err
	}
	T := zs.T()
	w, err := newWindows(inst, T)
	if err != nil {
		return nil, err
	}
	order := taskOrder(w, opt.Score)

	// Static candidate start set per zone: the zone profile's interval
	// boundaries (and refinement points when requested), sorted.
	var refined [][]int64
	if opt.Refined {
		refined = refinedPoints(inst, zs, opt.EffectiveK())
	}
	ptsOf := make([][]int64, zs.NumZones())
	for z := range ptsOf {
		prof := zs.Profile(z)
		pts := make([]int64, 0, prof.J()+1)
		for _, iv := range prof.Intervals {
			pts = append(pts, iv.Start)
		}
		if refined != nil {
			// Both lists are sorted and deduplicated; merge linearly.
			pts = mergeSortedUnique(pts, refined[z])
		}
		ptsOf[z] = pts
		if st != nil {
			st.Intervals += len(pts)
		}
	}

	tls := schedule.NewZoneTimelines(inst, nil, zs)
	s := schedule.New(inst.N())
	for i, v := range order {
		if i%ctxCheckStride == 0 {
			if err := canceled(ctx); err != nil {
				return nil, err
			}
		}
		est, lst := w.est[v], w.lst[v]
		dur := inst.Dur[v]
		_, work := inst.ProcPower(v)
		tl := tls.For(v)
		pts := ptsOf[schedule.NodeZone(inst, zs, v)]

		probe := func(at int64) int64 {
			return tl.PlaceDelta(at, at+dur, work)
		}

		best := est
		bestDelta := probe(est)
		lo := sort.Search(len(pts), func(i int) bool { return pts[i] >= est })
		found := false
		for i := lo; i < len(pts) && pts[i] <= lst; i++ {
			if pts[i] == est {
				found = true
				continue // already probed
			}
			if d := probe(pts[i]); d < bestDelta {
				bestDelta, best = d, pts[i]
			}
		}
		if st != nil && !found && (lo >= len(pts) || lst < pts[lo]) {
			st.FallbackStarts++
		}
		w.Fix(v, best)
		s.Start[v] = best
		tl.Add(best, best+dur, work)
	}
	if st != nil {
		st.GreedyCost = schedule.CarbonCost(inst, s, zs)
	}
	return s, nil
}
