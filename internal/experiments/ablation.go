package experiments

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/greenheft"
	"repro/internal/schedule"
	"repro/internal/stats"
)

// This file contains ablation studies beyond the paper's figures: sweeps
// over the two tuning parameters (block size k of the interval refinement
// and radius µ of the local search, both fixed to 3 and 10 in Section 6.1),
// a comparison of the paper's hill climber against simulated annealing, and
// the two-pass carbon-aware-mapping extension sketched in Section 7.

// AblationK sweeps the refinement block size k for the pressWR variant and
// reports median cost ratio vs ASAP, median interval count J′ and median
// scheduling time per k. Every k runs in one sweep, so each instance is
// built once for all of them.
func AblationK(ctx context.Context, specs []Spec, ks []int, workers int) (*Table, error) {
	t := &Table{
		Title:   "Ablation: refinement block size k (pressWR, no LS)",
		Columns: []string{"k", "median_ratio", "q3_ratio", "median_J'", "median_s"},
		Note:    fmt.Sprintf("%d instances; paper default k = 3", len(specs)),
	}
	optK := func(k int) core.Options { return core.Options{Score: core.ScorePressureW, Refined: true, K: k} }
	algos := []Algorithm{baseline()}
	for _, k := range ks {
		algos = append(algos, Algorithm{
			Name: fmt.Sprintf("pressWR-k%d", k),
			Run: func(ctx context.Context, in *Instance) (*schedule.Schedule, error) {
				s, _, err := core.Run(ctx, in.Inst, in.Zones, optK(k))
				return s, err
			},
		})
	}
	results, err := sweepStrict(ctx, specs, algos, workers)
	if err != nil {
		return nil, err
	}
	// J′ is a statistic of the greedy run, not a cost: measure it on each
	// built instance, for every k at once.
	intervals := matrix(len(ks), len(specs))
	err = forEach(ctx, len(specs), workers, func(i int) error {
		in, err := BuildInstance(specs[i])
		if err != nil {
			return err
		}
		for ki, k := range ks {
			var st core.Stats
			if _, err := core.Greedy(ctx, in.Inst, in.Zones, optK(k), &st); err != nil {
				return err
			}
			intervals[ki][i] = float64(st.Intervals)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ki, k := range ks {
		name := algos[ki+1].Name
		g := buildGrid(results, []string{BaselineName, name})
		_, med, q3 := stats.Quartiles(ratiosVsBaseline(g)[name])
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", k), f3(med), f3(q3),
			fmt.Sprintf("%.0f", stats.Median(intervals[ki])),
			fmt.Sprintf("%.4f", stats.Median(g.timesOf(1))),
		})
	}
	return t, nil
}

// AblationMu sweeps the local-search radius µ for pressWR-LS and reports
// median cost ratio vs ASAP and median scheduling time per µ. Every µ
// runs in one sweep, so each instance is built once for all of them.
func AblationMu(ctx context.Context, specs []Spec, mus []int64, workers int) (*Table, error) {
	t := &Table{
		Title:   "Ablation: local search radius mu (pressWR-LS)",
		Columns: []string{"mu", "median_ratio", "q3_ratio", "median_s"},
		Note:    fmt.Sprintf("%d instances; paper default mu = 10", len(specs)),
	}
	algos := []Algorithm{baseline()}
	for _, mu := range mus {
		algos = append(algos, Algorithm{
			Name: fmt.Sprintf("pressWR-LS-mu%d", mu),
			Run: func(ctx context.Context, in *Instance) (*schedule.Schedule, error) {
				s, _, err := core.Run(ctx, in.Inst, in.Zones, core.Options{
					Score: core.ScorePressureW, Refined: true,
					LocalSearch: true, Mu: mu,
				})
				return s, err
			},
		})
	}
	results, err := sweepStrict(ctx, specs, algos, workers)
	if err != nil {
		return nil, err
	}
	for mi, mu := range mus {
		name := algos[mi+1].Name
		g := buildGrid(results, []string{BaselineName, name})
		_, med, q3 := stats.Quartiles(ratiosVsBaseline(g)[name])
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", mu), f3(med), f3(q3),
			fmt.Sprintf("%.4f", stats.Median(g.timesOf(1))),
		})
	}
	return t, nil
}

// AblationImprovers compares the paper's first-improvement hill climber
// (Section 5.3) with simulated annealing and with their combination, all
// seeded by the same pressWR greedy schedule.
func AblationImprovers(ctx context.Context, specs []Spec, workers int) (*Table, error) {
	greedyOpt := core.Options{Score: core.ScorePressureW, Refined: true}
	mk := func(name string, improve func(context.Context, *Instance, *schedule.Schedule) error) Algorithm {
		return Algorithm{
			Name: name,
			Run: func(ctx context.Context, in *Instance) (*schedule.Schedule, error) {
				s, err := core.Greedy(ctx, in.Inst, in.Zones, greedyOpt, nil)
				if err != nil {
					return nil, err
				}
				if improve != nil {
					if err := improve(ctx, in, s); err != nil {
						return nil, err
					}
				}
				return s, nil
			},
		}
	}
	hill := func(ctx context.Context, in *Instance, s *schedule.Schedule) error {
		return core.LocalSearch(ctx, in.Inst, in.Zones, s, core.DefaultMu, nil)
	}
	anneal := func(ctx context.Context, in *Instance, s *schedule.Schedule) error {
		_, err := core.Anneal(ctx, in.Inst, in.Zones, s, core.AnnealOptions{Seed: in.Spec.Seed})
		return err
	}
	algos := []Algorithm{
		baseline(),
		mk("greedy-only", nil),
		mk("hill-climb", hill),
		mk("anneal", anneal),
		mk("hill+anneal", func(ctx context.Context, in *Instance, s *schedule.Schedule) error {
			if err := hill(ctx, in, s); err != nil {
				return err
			}
			return anneal(ctx, in, s)
		}),
	}
	results, err := sweepStrict(ctx, specs, algos, workers)
	if err != nil {
		return nil, err
	}
	names := AlgoNames(algos)
	g := buildGrid(results, names)
	ratios := ratiosVsBaseline(g)
	t := &Table{
		Title:   "Ablation: schedule improvers on top of the pressWR greedy",
		Columns: []string{"improver", "median_ratio", "q1", "q3", "median_s"},
		Note:    fmt.Sprintf("%d instances; ratio vs ASAP", len(specs)),
	}
	for ai, name := range names {
		rs, ok := ratios[name]
		if !ok || len(rs) == 0 {
			continue
		}
		q1, med, q3 := stats.Quartiles(rs)
		t.Rows = append(t.Rows, []string{name, f3(med), f3(q1), f3(q3),
			fmt.Sprintf("%.4f", stats.Median(g.timesOf(ai)))})
	}
	return t, nil
}

// ExtensionTwoPass evaluates the future-work idea of Section 7: replace
// the carbon-unaware HEFT mapping with the carbon-aware mapping policies
// of internal/greenheft, then run the second (CaWoSched) pass. For each
// policy it reports the median carbon cost ratio relative to the standard
// HEFT + pressWR-LS pipeline, and the median makespan inflation D/D_heft.
//
// MappingTable over the mapping-ablation grid does not reproduce this
// table, even on the single-zone corpus. Each policy here regenerates its
// own deadline and supply from its own makespan; the mapping grid anchors
// both to the fixed mapping, so a slower mapping meets a tighter horizon
// and some of its cells turn infeasible. The mapping grid also has no D
// column. Measured with -parallel 2 -zones 1 -mappings
// fixed,lowpower,energy -variants pressWR-LS -max-tasks 500: lowpower
// reads 1.043 over 112 cells there, against 1.000 over 192 instances here
// with a D inflation of 2.441.
func ExtensionTwoPass(ctx context.Context, specs []Spec, workers int) (*Table, error) {
	type outcome struct{ cost, d float64 }
	opt := core.Options{Score: core.ScorePressureW, Refined: true, LocalSearch: true}
	pols := greenheft.Policies()
	perSpec := make([][]outcome, len(specs)) // [spec][policy]
	err := forEach(ctx, len(specs), workers, func(i int) error {
		spec := specs[i]
		d, cluster, err := materialize(spec)
		if err != nil {
			return err
		}
		row := make([]outcome, len(pols))
		for pi, pol := range pols {
			inst, err := mapInstance(spec, d, cluster, pol, nil)
			if err != nil {
				return err
			}
			in, err := finishInstance(spec, inst)
			if err != nil {
				return err
			}
			_, st, err := core.Run(ctx, in.Inst, in.Zones, opt)
			if err != nil {
				return fmt.Errorf("experiments: two-pass %v on %s: %w", pol, spec, err)
			}
			row[pi] = outcome{cost: float64(st.Cost), d: float64(in.D)}
		}
		perSpec[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	ref := slices.Index(pols, greenheft.EFT)
	t := &Table{
		Title:   "Extension (Section 7): carbon-aware mapping + CaWoSched second pass",
		Columns: []string{"mapping", "median_cost_vs_heft", "median_D_vs_heft", "instances"},
		Note:    "both passes end with pressWR-LS; cost ratio < 1 means the greener mapping also lowers final carbon",
	}
	for pi, pol := range pols {
		// Normalize each spec's outcome by its EFT reference; a positive
		// cost over a zero reference is an infinite ratio, left out.
		var costs, ds []float64
		for _, row := range perSpec {
			o, r := row[pi], row[ref]
			switch {
			case r.cost > 0:
				costs = append(costs, o.cost/r.cost)
			case o.cost == 0:
				costs = append(costs, 1)
			}
			ds = append(ds, o.d/r.d)
		}
		t.Rows = append(t.Rows, []string{
			pol.String(), f3(stats.Median(costs)), f3(stats.Median(ds)),
			fmt.Sprintf("%d", len(costs)),
		})
	}
	return t, nil
}
