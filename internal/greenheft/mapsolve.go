package greenheft

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/ceg"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/scherr"
)

// MapAndSolve is the two-pass mapping search: map the workflow under K
// candidate policies, run the zone-aware CaWoSched scheduler on each
// mapping against the same per-zone supply, and keep the lowest-carbon
// feasible plan. Because the classic EFT mapping is always among the
// candidates, the result is never worse than fixed-mapping scheduling on
// the same instance: a mapping whose ASAP makespan exceeds the horizon is
// simply infeasible and skipped (recorded in-band in Outcomes).

// MapInstance maps the workflow under the given options and builds the
// communication-enhanced scheduling instance from the result — the
// mapping→instance step shared by the solver's plan memo, the facade's
// PlanGreenZones, the experiment drivers, and MapAndSolve below.
func MapInstance(d *dag.DAG, c *platform.Cluster, opt Options) (*ceg.Instance, error) {
	m, err := Schedule(d, c, opt)
	if err != nil {
		return nil, err
	}
	return ceg.Build(d, ceg.FromHEFT(m.Proc, m.Order, m.Finish), c)
}

// MapSolveOptions tunes the two-pass search.
type MapSolveOptions struct {
	// Policies is the candidate set (nil means AllPolicies, which always
	// contains EFT so the fixed-mapping baseline competes too).
	Policies []Policy
	// Sched selects the CaWoSched variant of the second pass.
	Sched core.Options
}

// PolicyOutcome records one candidate's fate, feasible or not.
type PolicyOutcome struct {
	Policy Policy
	D      int64      // ASAP makespan of the candidate mapping
	Cost   int64      // carbon cost of its schedule (valid when Err == "")
	Err    string     // infeasibility or scheduling failure, in-band
	Stats  core.Stats // its core.Run's, as far as the run got
}

// MapSolveResult is the winning plan plus the per-candidate audit trail.
type MapSolveResult struct {
	Policy   Policy             // the winning mapping policy
	Inst     *ceg.Instance      // the winning scheduling instance
	Schedule *schedule.Schedule // its carbon-aware schedule; nil when no candidate was feasible
	Stats    core.Stats
	Cost     int64
	D        int64 // ASAP makespan of the winning mapping
	Outcomes []PolicyOutcome
	FirstErr error // the first infeasible candidate's error, if any
}

// PlanFunc supplies the search with one candidate: the scheduling
// instance of the workflow mapped under pol, and that mapping's ASAP
// makespan. The search calls it sequentially, in policy order, so it may
// keep state across calls without a lock.
type PlanFunc func(ctx context.Context, pol Policy) (inst *ceg.Instance, d int64, err error)

// MapAndSolve runs the two-pass pipeline for the workflow on the cluster
// against the per-zone supply zs (whose common horizon is the deadline),
// mapping each candidate with MapInstance. If no candidate can meet the
// deadline, the first candidate's error is returned. See Search for the
// evaluation order.
func MapAndSolve(ctx context.Context, d *dag.DAG, c *platform.Cluster, zs *power.ZoneSet, opt MapSolveOptions) (*MapSolveResult, error) {
	if zs == nil {
		return nil, fmt.Errorf("greenheft: MapAndSolve needs a per-zone power supply")
	}
	res, err := Search(ctx, zs, opt, func(_ context.Context, pol Policy) (*ceg.Instance, int64, error) {
		inst, err := MapInstance(d, c, Options{Policy: pol, Zones: zs})
		if err != nil {
			return nil, 0, err
		}
		return inst, core.ASAPMakespan(inst), nil
	})
	if err != nil {
		return nil, err
	}
	if res.Schedule == nil {
		return nil, fmt.Errorf("greenheft: no candidate mapping is feasible: %w", res.FirstErr)
	}
	return res, nil
}

// Search is the one implementation of the mapping search: plan every
// candidate policy of opt through plan, in policy order, then schedule
// each instance against zs with the variant opt.Sched, in the same order,
// and keep the lowest-carbon feasible one (the first, on a tie).
// Candidates that cannot meet the deadline are skipped and recorded in
// Outcomes; when none can, the result has a nil Schedule and FirstErr
// holds the first candidate's error. A planning failure or a canceled ctx
// aborts the search with that error and no result.
func Search(ctx context.Context, zs *power.ZoneSet, opt MapSolveOptions, plan PlanFunc) (*MapSolveResult, error) {
	policies := opt.Policies
	if len(policies) == 0 {
		policies = AllPolicies()
	}

	type candidate struct {
		inst *ceg.Instance
		d    int64
	}
	cands := make([]candidate, len(policies))
	for i, pol := range policies {
		if err := scherr.Canceled(ctx.Err()); err != nil {
			return nil, err
		}
		inst, d, err := plan(ctx, pol)
		if err != nil {
			return nil, err
		}
		cands[i] = candidate{inst, d}
	}

	res := &MapSolveResult{Outcomes: make([]PolicyOutcome, 0, len(policies))}
	for i, pol := range policies {
		c := cands[i]
		s, st, err := core.Run(ctx, c.inst, zs, opt.Sched)
		if errors.Is(err, scherr.ErrCanceled) {
			return nil, err
		}
		out := PolicyOutcome{Policy: pol, D: c.d, Stats: st}
		if err != nil {
			// Typically ErrInfeasibleDeadline: this mapping cannot meet
			// the horizon. Record it and let the other candidates compete.
			out.Err = err.Error()
			if res.FirstErr == nil {
				res.FirstErr = err
			}
		} else {
			out.Cost = st.Cost
			if res.Schedule == nil || st.Cost < res.Cost {
				res.Policy, res.Inst, res.Schedule = pol, c.inst, s
				res.Stats, res.Cost, res.D = st, st.Cost, c.d
			}
		}
		res.Outcomes = append(res.Outcomes, out)
	}
	return res, nil
}
