// Package core implements CaWoSched, the carbon-aware workflow scheduler of
// Section 5: given a communication-enhanced instance (fixed mapping and
// ordering), a deadline, and a green power profile, it shifts task start
// times to minimize the total carbon cost.
//
// The framework combines
//
//   - the ASAP baseline (Section 5.1),
//   - a greedy start-time assignment driven by one of four task scores —
//     slack, pressure, and their power-weighted versions (Section 5.2) —
//     over either the original intervals or a refined subdivision derived
//     from blocks of up to k consecutive tasks,
//   - and an optional hill-climbing local search (Section 5.3).
//
// The 4 scores × 2 subdivisions × {with, without} local search give the 16
// heuristic variants evaluated in Section 6.
//
// Every entry point takes a context.Context and polls it at phase
// boundaries and periodically inside the hot loops; a canceled context
// aborts the run with an error satisfying errors.Is(err, scherr.ErrCanceled)
// and errors.Is(err, ctx.Err()).
package core

import (
	"context"
	"fmt"

	"repro/internal/ceg"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/scherr"
)

// ctxCheckStride is how many loop iterations (greedy placements, annealing
// proposals, local-search task scans) pass between context polls. ctx.Err()
// is an atomic load, so the stride only amortizes the branch.
const ctxCheckStride = 256

// canceled returns the wrapped cancellation error if ctx is done, else nil.
func canceled(ctx context.Context) error {
	return scherr.Canceled(ctx.Err())
}

// Run executes one CaWoSched variant on the instance against per-zone
// green power: the greedy consults the budgets of each task's grid zone
// and the local search moves tasks on per-zone timelines, minimizing the
// summed carbon cost over all zones. The deadline is the zone set's common
// horizon T; a one-zone set is the paper's cluster-wide profile. Run
// returns the schedule and statistics about the run. It fails with
// scherr.ErrInfeasibleDeadline if the instance cannot meet the deadline at
// all (the ASAP makespan exceeds T), and with scherr.ErrCanceled if ctx is
// canceled mid-run.
func Run(ctx context.Context, inst *ceg.Instance, zs *power.ZoneSet, opt Options) (*schedule.Schedule, Stats, error) {
	var st Stats
	gctx, gsp := obs.Start(ctx, "greedy")
	s, err := Greedy(gctx, inst, zs, opt, &st)
	greedyAttrs(gsp, &st, err)
	if err != nil {
		return nil, st, err
	}
	if err := localSearchSpan(ctx, inst, zs, s, opt, &st); err != nil {
		return nil, st, err
	}
	if err := schedule.Validate(inst, s, zs.T()); err != nil {
		return nil, st, fmt.Errorf("core: produced invalid schedule: %w", err)
	}
	st.Cost = schedule.CarbonCost(inst, s, zs)
	return s, st, nil
}

// greedyAttrs records the greedy phase's introspection on its span.
func greedyAttrs(sp *obs.Span, st *Stats, err error) {
	if sp == nil {
		return
	}
	if err == nil {
		sp.SetAttr("cost", st.GreedyCost)
		sp.SetAttr("intervals", st.Intervals)
		sp.SetAttr("fallback_starts", st.FallbackStarts)
	} else {
		sp.SetAttr("error", err.Error())
	}
	sp.End()
}

// localSearchSpan runs the optional local-search phase under a
// "local-search" span carrying the round/move/gain/scan counters; the
// scan inside adds the timeline mode and its evaluation count.
func localSearchSpan(ctx context.Context, inst *ceg.Instance, zs *power.ZoneSet, s *schedule.Schedule, opt Options, st *Stats) error {
	if !opt.LocalSearch {
		return nil
	}
	lctx, lsp := obs.Start(ctx, "local-search")
	err := LocalSearch(lctx, inst, zs, s, opt.EffectiveMu(), st)
	if lsp != nil {
		if err == nil {
			lsp.SetAttr("rounds", st.LSRounds)
			lsp.SetAttr("moves", st.LSMoves)
			lsp.SetAttr("gain", st.LSGain)
			lsp.SetAttr("scans", st.LSScans)
		} else {
			lsp.SetAttr("error", err.Error())
		}
		lsp.End()
	}
	return err
}

// Stats reports instrumentation from a scheduler run.
type Stats struct {
	Cost           int64 // final carbon cost
	GreedyCost     int64 // cost after the greedy phase (before local search)
	Intervals      int   // number of intervals used by the greedy (J′)
	FallbackStarts int   // tasks started at EST because no interval qualified
	LSRounds       int   // local search rounds (including the final gainless one)
	LSMoves        int   // accepted local search moves
	LSGain         int64 // total cost reduction achieved by the local search
	// LSScans counts task visits across all local-search rounds
	// (rounds × tasks), evaluated or skipped.
	LSScans int
}

// ASAP returns the baseline schedule that starts every task at its earliest
// possible start time (Section 5.1). It ignores the power profile entirely.
func ASAP(inst *ceg.Instance) *schedule.Schedule {
	est := computeEST(inst)
	return &schedule.Schedule{Start: est}
}

// ASAPMakespan returns D, the makespan of the ASAP schedule — the tightest
// deadline for which the instance remains feasible.
func ASAPMakespan(inst *ceg.Instance) int64 {
	est := computeEST(inst)
	var d int64
	for v := 0; v < inst.N(); v++ {
		if f := est[v] + inst.Dur[v]; f > d {
			d = f
		}
	}
	return d
}
