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
	"time"

	"repro/internal/ceg"
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
// canceled mid-run. On an error the Stats hold what the run got through:
// LSRounds is 0 unless the local search had started.
func Run(ctx context.Context, inst *ceg.Instance, zs *power.ZoneSet, opt Options) (*schedule.Schedule, Stats, error) {
	var st Stats
	t0 := time.Now()
	s, err := Greedy(ctx, inst, zs, opt, &st)
	st.GreedyTime = time.Since(t0)
	if err != nil {
		return nil, st, err
	}
	if opt.LocalSearch {
		t1 := time.Now()
		err := LocalSearch(ctx, inst, zs, s, opt.EffectiveMu(), &st)
		st.LSTime = time.Since(t1)
		if err != nil {
			return nil, st, err
		}
	}
	if err := schedule.Validate(inst, s, zs.T()); err != nil {
		return nil, st, fmt.Errorf("core: produced invalid schedule: %w", err)
	}
	// The climber's gains are exact differences of the same cost, so the
	// final cost needs no second sweep.
	st.Cost = st.GreedyCost - st.LSGain
	return s, st, nil
}

// Stats reports instrumentation from a scheduler run.
type Stats struct {
	Cost           int64 // final carbon cost: GreedyCost − LSGain
	GreedyCost     int64 // cost after the greedy phase (before local search)
	Intervals      int   // number of intervals used by the greedy (J′)
	FallbackStarts int   // tasks started at EST because no interval qualified
	LSRounds       int   // local search rounds (including the final gainless one)
	LSMoves        int   // accepted local search moves
	LSGain         int64 // total cost reduction achieved by the local search
	// LSScans counts task visits across all local-search rounds
	// (rounds × tasks), evaluated or skipped.
	LSScans int
	// LSEvals counts the visits that ran FirstImprovingMove; the others
	// were answered by lsSettled.
	LSEvals int

	// Wall-clock durations of the two phases, set by Run alone (LSTime
	// stays 0 without a local search). They are the only fields that
	// differ between two runs of the same input.
	GreedyTime time.Duration
	LSTime     time.Duration
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
