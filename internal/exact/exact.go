// Package exact provides a provably optimal solver for small instances of
// the carbon-aware scheduling problem, via branch-and-bound over integer
// start times.
//
// It plays the role of the paper's Gurobi-backed ILP (Appendix A.4) in the
// quality comparison of Figure 7: both compute the true optimum. Its tests
// hold it to an exhaustive enumeration of start vectors on tiny one- and
// two-zone instances (TestSolveMatchesEnumeration), and they also run the
// 3-Partition reduction of Theorem 4.3 through it (npc_test.go).
//
// The key pruning fact is that the objective Σ_t max(P_t − G_t, 0) is
// monotone in added work power, so the cost of a partial schedule
// (scheduled tasks only, full idle floor) lower-bounds every completion.
package exact

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/ceg"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/scherr"
)

// Options bounds the search effort.
type Options struct {
	// MaxNodes aborts the search after this many search-tree nodes
	// (0 = default of 50 million).
	MaxNodes int64
	// Incumbent, when non-nil, is a known feasible schedule, e.g. from a
	// heuristic. It must pass schedule.Validate under the zone set's
	// horizon (Solve returns an error otherwise), and its carbon cost
	// primes the best cost found, so the search prunes every subtree that
	// cannot beat it from the start. nil means no bound is known.
	Incumbent *schedule.Schedule
}

const defaultMaxNodes = 50_000_000

// ErrBudget is returned when the node budget is exhausted before the
// search space is covered; the result is then only an upper bound. It is
// the shared scherr.ErrBudgetExhausted sentinel, so errors.Is matches
// either name.
var ErrBudget = scherr.ErrBudgetExhausted

// ctxCheckStride is how many search-tree nodes are expanded between
// context polls.
const ctxCheckStride = 4096

// Solve finds a minimum-carbon-cost schedule for the instance under the
// zone set's deadline (its common horizon). It returns the optimal
// schedule and its cost. Each task's marginal placement cost is probed on
// the partial timeline of its own grid zone, and the minimized objective is
// the summed carbon cost over zones; the objective is monotone in added
// work power zone by zone, so the idle-only floor lower-bounds every
// completion. Instances should be tiny (roughly ≤ 12 tasks and T ≤ 100):
// the search is exponential. A canceled context aborts the search; like a
// budget hit, the incumbent found so far (if any) is returned alongside
// the scherr.ErrCanceled-wrapping error as an upper bound.
func Solve(ctx context.Context, inst *ceg.Instance, zs *power.ZoneSet, opt Options) (*schedule.Schedule, int64, error) {
	if err := schedule.CheckZones(inst, zs); err != nil {
		return nil, 0, err
	}
	T := zs.T()
	N := inst.N()
	maxNodes := opt.MaxNodes
	if maxNodes <= 0 {
		maxNodes = defaultMaxNodes
	}

	order := inst.Topo()

	// Static latest start times (deadline feasibility).
	lst := make([]int64, N)
	for i := N - 1; i >= 0; i-- {
		v := order[i]
		limit := T
		for _, ei := range inst.G.OutEdges(v) {
			e := inst.G.Edges[ei]
			if lst[e.To] < limit {
				limit = lst[e.To]
			}
		}
		lst[v] = limit - inst.Dur[v]
		if lst[v] < 0 {
			return nil, 0, &scherr.InfeasibleDeadlineError{Deadline: T, Node: v, EST: 0, LST: lst[v]}
		}
	}

	s := schedule.New(N)
	best := schedule.New(N)
	bestCost := int64(-1)
	if opt.Incumbent != nil {
		if err := schedule.Validate(inst, opt.Incumbent, T); err != nil {
			return nil, 0, fmt.Errorf("exact: bad incumbent: %w", err)
		}
		copy(best.Start, opt.Incumbent.Start)
		bestCost = schedule.CarbonCost(inst, opt.Incumbent, zs)
	}

	// Per-zone timelines holding only the scheduled prefix; floor is the
	// idle-only cost, which every completion pays at least.
	tls := schedule.NewZoneTimelines(inst, nil, zs)
	defer tls.Release()
	floor := schedule.GreenFloorCost(inst, zs)

	work := make([]int64, N)
	for v := 0; v < N; v++ {
		_, w := inst.ProcPower(v)
		work[v] = w
	}

	// Symmetry breaking: independent tasks (no edges) with identical
	// duration and processor power in the same grid zone are
	// interchangeable, so we may demand non-decreasing start times within
	// each such group. (Tasks in different zones draw on different
	// budgets and are not.) symPred[v] is the previous member of v's
	// group, or -1.
	symPred := make([]int, N)
	type symKey struct {
		dur, idle, work int64
		zone            int
	}
	lastOfGroup := map[symKey]int{}
	for v := 0; v < N; v++ {
		symPred[v] = -1
		if inst.G.InDegree(v) != 0 || inst.G.OutDegree(v) != 0 {
			continue
		}
		idle, w := inst.ProcPower(v)
		key := symKey{inst.Dur[v], idle, w, schedule.NodeZone(inst, zs, v)}
		if prev, ok := lastOfGroup[key]; ok {
			symPred[v] = prev
		}
		lastOfGroup[key] = v
	}

	var nodes int64
	var budgetHit bool
	var ctxErr error
	done := false // set when bestCost reaches the floor (global optimum)

	var dfs func(depth int, partial int64)
	dfs = func(depth int, partial int64) {
		if budgetHit || done || ctxErr != nil {
			return
		}
		nodes++
		if nodes > maxNodes {
			budgetHit = true
			return
		}
		if nodes%ctxCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				ctxErr = scherr.Canceled(err)
				return
			}
		}
		if bestCost >= 0 && partial >= bestCost {
			return // even the floor of this subtree is no better
		}
		if depth == N {
			copy(best.Start, s.Start)
			bestCost = partial
			if bestCost == floor {
				done = true // matches the global lower bound
			}
			return
		}
		v := order[depth]
		est := int64(0)
		for _, ei := range inst.G.InEdges(v) {
			e := inst.G.Edges[ei]
			if f := s.Start[e.From] + inst.Dur[e.From]; f > est {
				est = f
			}
		}
		if p := symPred[v]; p >= 0 && s.Start[p] > est {
			est = s.Start[p] // interchangeable twin scheduled earlier
		}
		if est > lst[v] {
			return
		}
		// Evaluate every candidate start's marginal cost, then branch in
		// increasing marginal-cost order so good incumbents appear early.
		type cand struct {
			start int64
			delta int64
		}
		cands := make([]cand, 0, lst[v]-est+1)
		tl := tls.For(v) // placing v only perturbs its zone's draw
		for st := est; st <= lst[v]; st++ {
			cands = append(cands, cand{st, tl.PlaceDelta(st, st+inst.Dur[v], work[v])})
		}
		sort.SliceStable(cands, func(i, j int) bool { return cands[i].delta < cands[j].delta })
		for _, c := range cands {
			if bestCost >= 0 && partial+c.delta >= bestCost {
				continue
			}
			s.Start[v] = c.start
			tl.Add(c.start, c.start+inst.Dur[v], work[v])
			dfs(depth+1, partial+c.delta)
			tl.Remove(c.start, c.start+inst.Dur[v], work[v])
			if budgetHit || done || ctxErr != nil {
				return
			}
		}
	}
	dfs(0, floor)

	if bestCost < 0 {
		if ctxErr != nil {
			return nil, 0, ctxErr
		}
		return nil, 0, fmt.Errorf("exact: no feasible schedule found")
	}
	if err := schedule.Validate(inst, best, T); err != nil {
		return nil, 0, fmt.Errorf("exact: internal error, invalid best schedule: %w", err)
	}
	if ctxErr != nil {
		return best, bestCost, ctxErr
	}
	if budgetHit {
		return best, bestCost, &scherr.BudgetError{Nodes: nodes}
	}
	return best, bestCost, nil
}
