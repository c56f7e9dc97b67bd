package experiments

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/schedule"
	"repro/internal/scherr"
)

// BaselineName is the name of the carbon-unaware competitor.
const BaselineName = "ASAP"

// Algorithm is a named scheduler under test. Run must honor ctx: the sweep
// engine enforces -job-timeout by canceling it.
type Algorithm struct {
	Name string
	Run  func(context.Context, *Instance) (*schedule.Schedule, error)
}

// Algorithms returns the full roster of Section 6.2: the ASAP baseline
// followed by the 16 CaWoSched variants (8 greedy × {with, without} local
// search), in the paper's presentation order with the LS variants last.
// Variant algorithms carry their canonical registry names, so the names in
// sweep JSONL records resolve through core.LookupVariant.
func Algorithms() []Algorithm {
	algos := []Algorithm{baseline()}
	for _, name := range core.VariantNames() {
		algos = append(algos, fromRegistry(name))
	}
	return algos
}

// LSAlgorithms returns ASAP plus only the 8 local-search variants, the
// roster used for most figures ("we first compare the solution quality
// when the local search is applied").
func LSAlgorithms() []Algorithm {
	algos := []Algorithm{baseline()}
	for _, opt := range core.Variants(true) {
		algos = append(algos, fromRegistry(opt.Name()))
	}
	return algos
}

// AlgoNames returns the roster's names in order, the column order of
// every table and the algorithm list of a job grid.
func AlgoNames(algos []Algorithm) []string {
	names := make([]string, len(algos))
	for i, a := range algos {
		names[i] = a.Name
	}
	return names
}

func baseline() Algorithm {
	return Algorithm{
		Name: BaselineName,
		Run: func(ctx context.Context, in *Instance) (*schedule.Schedule, error) {
			return core.ASAP(in.Inst), nil
		},
	}
}

// fromRegistry builds the roster entry for a canonical variant name; it
// panics on a name missing from the registry (a programming error — roster
// names come from core.VariantNames).
func fromRegistry(name string) Algorithm {
	opt, err := core.LookupVariant(name)
	if err != nil {
		panic(err)
	}
	return Algorithm{
		Name: name,
		Run: func(ctx context.Context, in *Instance) (*schedule.Schedule, error) {
			s, _, err := core.Run(ctx, in.Inst, in.Zones, opt)
			return s, err
		},
	}
}

// Result is one (instance, algorithm) measurement.
type Result struct {
	Spec    Spec
	Algo    string
	Cost    int64
	Elapsed time.Duration
}

// runBest executes the algorithm on the instance and returns the carbon
// cost of its validated schedule. On a map-search instance it runs the
// algorithm once per candidate mapping — every candidate sees the same
// per-zone supply — and keeps the lowest feasible cost, skipping
// candidates that cannot meet the deadline (if none can, the first
// error is returned). Cancellation always aborts immediately.
func runBest(ctx context.Context, in *Instance, a Algorithm) (int64, error) {
	if len(in.Candidates) == 0 {
		s, err := a.Run(ctx, in)
		if err != nil {
			return 0, err
		}
		if err := schedule.Validate(in.Inst, s, in.Zones.T()); err != nil {
			return 0, fmt.Errorf("invalid schedule: %w", err)
		}
		return schedule.CarbonCost(in.Inst, s, in.Zones), nil
	}
	best := int64(-1)
	var firstErr error
	for _, cand := range in.Candidates {
		ci := *in
		ci.Inst = cand.Inst
		ci.Candidates = nil
		cost, err := runBest(ctx, &ci, a)
		if err != nil {
			if errors.Is(err, scherr.ErrCanceled) || ctx.Err() != nil {
				return 0, err
			}
			if firstErr == nil {
				firstErr = fmt.Errorf("mapping %s: %w", cand.Mapping, err)
			}
			continue
		}
		if best < 0 || cost < best {
			best = cost
		}
	}
	if best < 0 {
		return 0, fmt.Errorf("no feasible candidate mapping: %w", firstErr)
	}
	return best, nil
}

// grid organizes results as instance-major cost rows over a fixed
// algorithm order, the shape the stats package consumes.
type grid struct {
	algos []string
	specs []Spec
	costs [][]float64 // [instance][algorithm]
	times [][]float64 // seconds, same shape
}

// buildGrid collects the results into a dense grid. Results for unknown
// algorithms are ignored; instances missing any algorithm are dropped.
func buildGrid(results []Result, algos []string) *grid {
	idx := map[string]int{}
	for i, a := range algos {
		idx[a] = i
	}
	type key = Spec
	rows := map[key][]float64{}
	trows := map[key][]float64{}
	count := map[key]int{}
	for _, r := range results {
		ai, ok := idx[r.Algo]
		if !ok {
			continue
		}
		if _, ok := rows[r.Spec]; !ok {
			rows[r.Spec] = make([]float64, len(algos))
			trows[r.Spec] = make([]float64, len(algos))
		}
		rows[r.Spec][ai] = float64(r.Cost)
		trows[r.Spec][ai] = r.Elapsed.Seconds()
		count[r.Spec]++
	}
	g := &grid{algos: algos}
	for spec, row := range rows {
		if count[spec] != len(algos) {
			continue
		}
		g.specs = append(g.specs, spec)
		g.costs = append(g.costs, row)
		g.times = append(g.times, trows[spec])
	}
	// Deterministic order.
	order := make([]int, len(g.specs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		return g.specs[order[i]].String() < g.specs[order[j]].String()
	})
	specs := make([]Spec, len(order))
	costs := make([][]float64, len(order))
	times := make([][]float64, len(order))
	for i, o := range order {
		specs[i], costs[i], times[i] = g.specs[o], g.costs[o], g.times[o]
	}
	g.specs, g.costs, g.times = specs, costs, times
	return g
}

// timesOf returns algorithm column a of the running times, one entry per
// instance.
func (g *grid) timesOf(a int) []float64 {
	ts := make([]float64, 0, len(g.times))
	for _, row := range g.times {
		ts = append(ts, row[a])
	}
	return ts
}

// matrix allocates a rows × cols table of zeros.
func matrix(rows, cols int) [][]float64 {
	m := make([][]float64, rows)
	for i := range m {
		m[i] = make([]float64, cols)
	}
	return m
}

// filter returns a sub-grid with only instances matching pred.
func (g *grid) filter(pred func(Spec) bool) *grid {
	out := &grid{algos: g.algos}
	for i, s := range g.specs {
		if pred(s) {
			out.specs = append(out.specs, s)
			out.costs = append(out.costs, g.costs[i])
			out.times = append(out.times, g.times[i])
		}
	}
	return out
}
