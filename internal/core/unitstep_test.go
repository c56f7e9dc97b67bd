package core

import (
	"context"

	"repro/internal/ceg"
	"repro/internal/power"
	"repro/internal/schedule"
)

// LocalSearchUnitStep is the original O(mu) candidate scan: every integer
// shift in the ±mu window is probed left to right, on every visit. It
// accepts exactly the same moves as LocalSearch and is the reference the
// equivalence tests of localsearch_equiv_test.go hold it to.
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
