package core

import (
	"context"
	"math"

	"repro/internal/ceg"
	"repro/internal/power"
	"repro/internal/rng"
	"repro/internal/schedule"
)

// AnnealOptions tunes the simulated-annealing improver.
type AnnealOptions struct {
	// Iterations is the number of proposed moves (default 20·N).
	Iterations int
	// InitialTemp is the starting temperature in cost units; 0 derives it
	// from the schedule's current cost.
	InitialTemp float64
	// Cooling is the geometric cooling factor per iteration
	// (default 0.999).
	Cooling float64
	// Seed drives the proposal randomness.
	Seed uint64
}

func (o AnnealOptions) iterations(n int) int {
	if o.Iterations > 0 {
		return o.Iterations
	}
	return 20 * n
}

func (o AnnealOptions) cooling() float64 {
	if o.Cooling > 0 && o.Cooling < 1 {
		return o.Cooling
	}
	return 0.999
}

// Anneal improves a feasible schedule in place by simulated annealing: a
// randomized alternative to the paper's hill climber used for the
// local-search ablation. A proposal moves one random task to a start drawn
// uniformly from the candidate boundary starts of its current legal window
// (bounded by its scheduled neighbors, as in Section 5.3 but without the
// ±µ radius) on the timeline of its grid zone; worse moves are accepted
// with the Metropolis probability exp(−Δ/temperature). Restricting
// proposals to candidate starts loses nothing: the gain is linear between
// consecutive candidates (see schedule.CandidateStarts), so every locally
// optimal shift is a candidate, and the proposal space shrinks from
// O(window) to O(#level changes in the window). The best schedule seen is
// restored at the end, so the result is never worse than the input.
// Returns the final carbon cost.
//
// The context is polled every ctxCheckStride proposals; on cancellation the
// best schedule seen so far is restored and its cost returned alongside a
// scherr.ErrCanceled-wrapping error, so the partial improvement is usable.
func Anneal(ctx context.Context, inst *ceg.Instance, zs *power.ZoneSet, s *schedule.Schedule, opt AnnealOptions) (int64, error) {
	if err := schedule.CheckZones(inst, zs); err != nil {
		return 0, err
	}
	T := zs.T()
	N := inst.N()
	tls := schedule.NewZoneTimelines(inst, s, zs)
	defer tls.Release()
	cur := schedule.CarbonCost(inst, s, zs)
	best := s.Clone()
	bestCost := cur

	temp := opt.InitialTemp
	if temp <= 0 {
		temp = float64(cur)/10 + 1
	}
	cooling := opt.cooling()
	r := rng.New(rng.Mix(opt.Seed, 0xa11ea1))
	g := inst.G

	iters := opt.iterations(N)
	var candBuf []int64
	for it := 0; it < iters; it++ {
		if it%ctxCheckStride == 0 {
			if err := canceled(ctx); err != nil {
				copy(s.Start, best.Start)
				return bestCost, err
			}
		}
		v := r.Intn(N)
		dur := inst.Dur[v]
		lo := int64(0)
		for _, ei := range g.InEdges(v) {
			e := g.Edges[ei]
			if f := s.Start[e.From] + inst.Dur[e.From]; f > lo {
				lo = f
			}
		}
		hi := T - dur
		for _, ei := range g.OutEdges(v) {
			e := g.Edges[ei]
			if l := s.Start[e.To] - dur; l < hi {
				hi = l
			}
		}
		if hi <= lo {
			temp *= cooling
			continue
		}
		tl := tls.For(v)
		candBuf = tl.AppendCandidateStarts(candBuf[:0], lo, hi, dur)
		cand := candBuf[r.Intn(len(candBuf))]
		if cand == s.Start[v] {
			temp *= cooling
			continue
		}
		_, work := inst.ProcPower(v)
		gain := tl.MoveGain(s.Start[v], cand, dur, work)
		accept := gain > 0
		if !accept && temp > 1e-9 {
			accept = r.Float64() < math.Exp(float64(gain)/temp)
		}
		if accept {
			tl.ApplyMove(s.Start[v], cand, dur, work)
			s.Start[v] = cand
			cur -= gain
			if cur < bestCost {
				bestCost = cur
				copy(best.Start, s.Start)
			}
		}
		temp *= cooling
		if it%4096 == 4095 {
			tls.Compact()
		}
	}
	copy(s.Start, best.Start)
	return bestCost, nil
}
