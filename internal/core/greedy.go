package core

import (
	"context"

	"repro/internal/ceg"
	"repro/internal/power"
	"repro/internal/schedule"
)

// newZoneBudgets builds one remaining-budget structure per grid zone
// from that zone's profile (refined by its own subdivision points when
// requested), accumulating the interval count into st.
func newZoneBudgets(inst *ceg.Instance, zs *power.ZoneSet, opt Options, st *Stats) []*budgets {
	var extra []pointSet
	if opt.Refined {
		extra = refinedPoints(inst, zs, opt.EffectiveK())
	}
	bs := make([]*budgets, zs.NumZones())
	for z := range bs {
		ps := &pointSet{}
		if extra != nil {
			ps = &extra[z]
		}
		bs[z] = newBudgets(zs.Profile(z), ps)
	}
	if st != nil {
		for _, b := range bs {
			st.Intervals += b.numIntervals()
		}
	}
	return bs
}

// Greedy runs the greedy phase of CaWoSched (Section 5.2): it processes the
// tasks in score order and starts each at the beginning of the feasible
// interval with the highest remaining green budget, falling back to the
// earliest start time when no interval start lies in the task's window.
// Each grid zone keeps its own remaining-budget structure over its own
// profile; every task consults — and after its placement decreases, by its
// processor's total power — the budgets of its processor's zone, and all
// remaining start windows are updated. The context is polled every
// ctxCheckStride placements.
func Greedy(ctx context.Context, inst *ceg.Instance, zs *power.ZoneSet, opt Options, st *Stats) (*schedule.Schedule, error) {
	if err := schedule.CheckZones(inst, zs); err != nil {
		return nil, err
	}
	T := zs.T()
	w, err := newWindows(inst, T)
	if err != nil {
		return nil, err
	}
	order := taskOrder(w, opt.Score)
	bs := newZoneBudgets(inst, zs, opt, st)
	defer func() {
		for _, b := range bs {
			b.release()
		}
	}()

	s := schedule.New(inst.N())
	for i, v := range order {
		if i%ctxCheckStride == 0 {
			if err := canceled(ctx); err != nil {
				return nil, err
			}
		}
		b := bs[schedule.NodeZone(inst, zs, v)]
		start, ok := b.bestStart(w.est[v], w.lst[v])
		if !ok {
			start = w.est[v]
			if st != nil {
				st.FallbackStarts++
			}
		}
		w.Fix(v, start)
		s.Start[v] = start
		idle, work := inst.ProcPower(v)
		b.consume(start, start+inst.Dur[v], idle+work)
	}
	if st != nil {
		st.GreedyCost = schedule.CarbonCost(inst, s, zs)
	}
	return s, nil
}
