package greenheft

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/ceg"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/obs"
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
	// Workers is the width of the candidate fan-out: up to Workers
	// candidate mappings are scheduled at once (planning stays
	// sequential, see PlanFunc). Values ≤ 1 schedule them one after
	// another. It is the only parallelism inside a solve and pure
	// mechanism — the winner, outcomes, and errors are reduced in policy
	// order, so the result is identical at any width.
	Workers int
}

// PolicyOutcome records one candidate's fate, feasible or not.
type PolicyOutcome struct {
	Policy Policy
	D      int64  // ASAP makespan of the candidate mapping
	Cost   int64  // carbon cost of its schedule (valid when Err == "")
	Err    string // infeasibility or scheduling failure, in-band
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
// evaluation order and the worker-count invariance.
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

// polEval is one candidate's evaluation — instance built in the
// sequential planning pass, then solved (possibly concurrently) and
// reduced strictly in policy order.
type polEval struct {
	inst    *ceg.Instance
	s       *schedule.Schedule
	st      core.Stats
	d       int64
	planErr error // structural planning failure or cancellation: aborts the whole search
	err     error // per-candidate scheduling failure (or cancellation)
}

// Search is the one implementation of the mapping search: plan every
// candidate policy of opt through plan, schedule each instance against zs
// with the variant opt.Sched, and keep the lowest-carbon feasible one.
// Candidates that cannot meet the deadline are skipped and recorded in
// Outcomes; when none can, the result has a nil Schedule and FirstErr
// holds the first candidate's error. Canceling ctx aborts the search.
//
// With opt.Workers > 1 the candidates' solves run concurrently across a
// bounded pool. The planning pass stays sequential regardless, so plan
// need not be safe for concurrent use; the instances themselves do not
// depend on planning order, since a link's processor id is fixed by the
// cluster (platform.Cluster.Link). The solves are independent, and the
// reduction walks the policies in order — first strictly lower cost wins,
// a planning failure or cancellation surfaces at its index exactly as in a
// sequential search — so the result is bit-identical at any worker count.
func Search(ctx context.Context, zs *power.ZoneSet, opt MapSolveOptions, plan PlanFunc) (*MapSolveResult, error) {
	policies := opt.Policies
	if len(policies) == 0 {
		policies = AllPolicies()
	}

	evals := make([]*polEval, len(policies))
	mapped := make([]int, 0, len(policies))
	for i, pol := range policies {
		e := &polEval{}
		evals[i] = e
		if e.planErr = scherr.Canceled(ctx.Err()); e.planErr == nil {
			e.inst, e.d, e.planErr = plan(ctx, pol)
		}
		if e.planErr != nil {
			break // the reduction below returns at this index
		}
		mapped = append(mapped, i)
	}

	// Solve pass: independent per candidate, so it may fan out.
	candidates := obs.MeterFrom(ctx).Counter("schedd_mapsearch_candidates_total",
		"map-search candidate mappings scheduled, by policy and outcome", "policy", "outcome")
	solve := func(i int) {
		e := evals[i]
		cctx, csp := obs.Start(ctx, "map-candidate")
		e.s, e.st, e.err = core.Run(cctx, e.inst, zs, opt.Sched)
		outcome := "ok"
		if e.err != nil {
			outcome = "error"
		}
		if csp != nil {
			csp.SetAttr("policy", policies[i].String())
			if e.err != nil {
				csp.SetAttr("error", e.err.Error())
			} else {
				csp.SetAttr("cost", e.st.Cost)
			}
			csp.End()
		}
		candidates.With(policies[i].String(), outcome).Inc()
	}
	if workers := min(opt.Workers, len(mapped)); workers > 1 {
		idxCh := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idxCh {
					solve(i)
				}
			}()
		}
		for _, i := range mapped {
			idxCh <- i
		}
		close(idxCh)
		wg.Wait()
	} else {
		for _, i := range mapped {
			solve(i)
			if errors.Is(evals[i].err, scherr.ErrCanceled) {
				break // the reduction below returns at this index
			}
		}
	}

	res := &MapSolveResult{}
	for i, pol := range policies {
		e := evals[i]
		if e == nil {
			break // unreachable: only indices past an aborting sequential eval
		}
		if e.planErr != nil {
			return nil, e.planErr
		}
		if errors.Is(e.err, scherr.ErrCanceled) {
			return nil, e.err
		}
		out := PolicyOutcome{Policy: pol, D: e.d}
		if e.err != nil {
			// Typically ErrInfeasibleDeadline: this mapping cannot meet
			// the horizon. Record it and let the other candidates compete.
			out.Err = e.err.Error()
			if res.FirstErr == nil {
				res.FirstErr = e.err
			}
		} else {
			out.Cost = e.st.Cost
			if res.Schedule == nil || e.st.Cost < res.Cost {
				res.Policy, res.Inst, res.Schedule = pol, e.inst, e.s
				res.Stats, res.Cost, res.D = e.st, e.st.Cost, out.D
			}
		}
		res.Outcomes = append(res.Outcomes, out)
	}
	return res, nil
}
