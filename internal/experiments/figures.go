package experiments

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/exact"
	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/stats"
)

// Table1Platform reproduces Table 1: the processor specifications of the
// two clusters.
func Table1Platform() *Table {
	t := &Table{
		Title:   "Table 1: Processor specifications in the clusters",
		Columns: []string{"Processor", "Speed", "Pidle", "Pwork", "small", "large"},
	}
	for _, pt := range platform.Table1() {
		t.Rows = append(t.Rows, []string{
			pt.Name,
			fmt.Sprintf("%d", pt.Speed),
			fmt.Sprintf("%d", pt.Idle),
			fmt.Sprintf("%d", pt.Work),
			"x12", "x24",
		})
	}
	return t
}

// Fig1Ranks reproduces Figure 1: for each algorithm, the percentage of
// instances on which it ranked first, second, ... (competition ranking,
// ties share a rank).
func Fig1Ranks(results []Result, algos []string) *Table {
	g := buildGrid(results, algos)
	dist := stats.RankDistribution(g.costs)
	t := &Table{
		Title:   "Figure 1: Rank distribution per algorithm variant",
		Columns: []string{"algorithm"},
		Note:    fmt.Sprintf("%d instances", len(g.specs)),
	}
	for r := 1; r <= len(algos); r++ {
		t.Columns = append(t.Columns, fmt.Sprintf("rank%d", r))
	}
	if len(g.specs) == 0 {
		t.Note = "no instances"
		return t
	}
	for a, name := range algos {
		row := []string{name}
		for r := 0; r < len(algos); r++ {
			row = append(row, pct(dist[a][r]))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// perfProfileTable renders a performance profile over the default τ grid.
func perfProfileTable(title string, g *grid) *Table {
	taus := stats.DefaultTaus()
	curves := stats.PerfProfile(g.costs, taus)
	t := &Table{
		Title:   title,
		Columns: []string{"algorithm"},
		Note:    fmt.Sprintf("%d instances; cells = fraction of instances with best/own >= tau", len(g.specs)),
	}
	for _, tau := range taus {
		t.Columns = append(t.Columns, fmt.Sprintf("t=%.2f", tau))
	}
	if len(g.specs) == 0 {
		t.Note = "no instances in this split"
		return t
	}
	for a, name := range g.algos {
		row := []string{name}
		for ti := range taus {
			row = append(row, f3(curves[a][ti]))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig2PerfProfile reproduces Figure 2: performance profiles over all
// instances.
func Fig2PerfProfile(results []Result, algos []string) *Table {
	return perfProfileTable("Figure 2: Performance profile (all instances)", buildGrid(results, algos))
}

// Fig3PerfProfileByDeadline reproduces Figures 3 and 10: performance
// profiles split by deadline factor.
func Fig3PerfProfileByDeadline(results []Result, algos []string) []*Table {
	g := buildGrid(results, algos)
	var out []*Table
	for _, df := range DeadlineFactors() {
		df := df
		sub := g.filter(func(s Spec) bool { return s.DeadlineFactor == df })
		title := fmt.Sprintf("Figure 3/10: Performance profile, deadline factor %.1f", df)
		out = append(out, perfProfileTable(title, sub))
	}
	return out
}

// ratiosVsBaseline returns, per algorithm, the per-instance cost ratios
// heuristic/baseline. Empty when the grid has no instances or no baseline.
func ratiosVsBaseline(g *grid) map[string][]float64 {
	base := -1
	for i, a := range g.algos {
		if a == BaselineName {
			base = i
			break
		}
	}
	out := map[string][]float64{}
	if base < 0 {
		return out
	}
	for a, name := range g.algos {
		if a == base {
			continue
		}
		ratios := make([]float64, 0, len(g.costs))
		for i := range g.costs {
			ratios = append(ratios, stats.CostRatio(g.costs[i][a], g.costs[i][base]))
		}
		out[name] = ratios
	}
	return out
}

// medianRatioTable renders median cost ratios vs the ASAP baseline.
func medianRatioTable(title string, g *grid) *Table {
	ratios := ratiosVsBaseline(g)
	t := &Table{
		Title:   title,
		Columns: []string{"algorithm", "median", "q1", "q3"},
		Note:    fmt.Sprintf("%d instances; ratio = heuristic cost / ASAP cost (lower is better)", len(g.specs)),
	}
	for _, name := range g.algos {
		rs, ok := ratios[name]
		if !ok || len(rs) == 0 {
			continue
		}
		q1, med, q3 := stats.Quartiles(rs)
		t.Rows = append(t.Rows, []string{name, f3(med), f3(q1), f3(q3)})
	}
	return t
}

// Fig4MedianCostRatio reproduces Figure 4: the median cost ratio of each
// variant against the ASAP baseline over all instances.
func Fig4MedianCostRatio(results []Result, algos []string) *Table {
	return medianRatioTable("Figure 4: Median cost ratio vs ASAP (all instances)", buildGrid(results, algos))
}

// Fig5CostRatioByDeadline reproduces Figures 5 and 11: median cost ratios
// split by deadline factor.
func Fig5CostRatioByDeadline(results []Result, algos []string) []*Table {
	g := buildGrid(results, algos)
	var out []*Table
	for _, df := range DeadlineFactors() {
		df := df
		sub := g.filter(func(s Spec) bool { return s.DeadlineFactor == df })
		title := fmt.Sprintf("Figure 5/11: Median cost ratio vs ASAP, deadline factor %.1f", df)
		out = append(out, medianRatioTable(title, sub))
	}
	return out
}

// boxPlotTable renders cost-ratio boxplots vs the baseline.
func boxPlotTable(title string, g *grid) *Table {
	ratios := ratiosVsBaseline(g)
	t := &Table{
		Title:   title,
		Columns: []string{"algorithm", "min", "whisker_lo", "q1", "median", "q3", "whisker_hi", "max", "outliers"},
		Note:    fmt.Sprintf("%d instances; ratio = heuristic cost / ASAP cost", len(g.specs)),
	}
	for _, name := range g.algos {
		rs, ok := ratios[name]
		if !ok || len(rs) == 0 {
			continue
		}
		b := stats.NewBoxPlot(rs)
		t.Rows = append(t.Rows, []string{
			name, f3(b.Min), f3(b.WhiskerLo), f3(b.Q1), f3(b.Median), f3(b.Q3),
			f3(b.WhiskerHi), f3(b.Max), fmt.Sprintf("%d", len(b.Outliers)),
		})
	}
	return t
}

// Fig6BoxPlots reproduces Figure 6: boxplots of cost ratios vs ASAP.
func Fig6BoxPlots(results []Result, algos []string) *Table {
	return boxPlotTable("Figure 6: Boxplot of cost ratios vs ASAP (all instances)", buildGrid(results, algos))
}

// Fig7ExactComparison reproduces Figure 7: the cost ratio optimal/heuristic
// on instances small enough for an exact solution. It runs its own tiny
// corpus (the paper restricts Gurobi to ≤ 200 tasks; our from-scratch
// branch-and-bound replaces Gurobi and needs miniature instances).
func Fig7ExactComparison(ctx context.Context, seed uint64, algos []Algorithm, maxNodes int64) (*Table, error) {
	specs := TinyCorpus(seed)
	names := AlgoNames(algos)
	ratios := make(map[string][]float64)
	solved := 0
	for _, spec := range specs {
		in, err := BuildInstance(spec)
		if err != nil {
			return nil, err
		}
		// Heuristic costs of validated schedules (the cheapest also primes
		// the exact solver's incumbent).
		costs := make([]int64, len(algos))
		var bestSched *schedule.Schedule
		var bestCost int64 = -1
		for i, a := range algos {
			s, err := a.Run(ctx, in)
			if err == nil {
				err = schedule.Validate(in.Inst, s, in.Zones.T())
			}
			if err != nil {
				return nil, fmt.Errorf("experiments: %s on %s: %w", a.Name, spec, err)
			}
			costs[i] = schedule.CarbonCost(in.Inst, s, in.Zones)
			if bestCost < 0 || costs[i] < bestCost {
				bestCost, bestSched = costs[i], s
			}
		}
		_, opt, err := exact.Solve(ctx, in.Inst, in.Zones, exact.Options{
			MaxNodes:  maxNodes,
			Incumbent: bestSched,
		})
		if errors.Is(err, exact.ErrBudget) {
			continue // inconclusive instance: skip rather than mislabel
		}
		if err != nil {
			return nil, fmt.Errorf("experiments: exact on %s: %w", spec, err)
		}
		solved++
		for i, name := range names {
			ratios[name] = append(ratios[name], stats.PerfRatio(float64(opt), float64(costs[i])))
		}
	}
	t := &Table{
		Title:   "Figure 7: Cost ratio optimal/heuristic (tiny instances)",
		Columns: []string{"algorithm", "median", "q1", "q3", "frac_optimal"},
		Note: fmt.Sprintf("%d/%d instances solved to optimality; ratio = optimal cost / heuristic cost (1.0 = heuristic optimal)",
			solved, len(specs)),
	}
	for _, name := range names {
		rs := ratios[name]
		if len(rs) == 0 {
			continue
		}
		q1, med, q3 := stats.Quartiles(rs)
		optFrac := 0.0
		for _, r := range rs {
			if r >= 1-1e-9 {
				optFrac++
			}
		}
		optFrac /= float64(len(rs))
		t.Rows = append(t.Rows, []string{name, f3(med), f3(q1), f3(q3), pct(optFrac)})
	}
	return t, nil
}

// runningTimeTable renders per-algorithm running-time statistics.
func runningTimeTable(title string, g *grid) *Table {
	t := &Table{
		Title:   title,
		Columns: []string{"algorithm", "median_s", "mean_s", "max_s"},
		Note:    fmt.Sprintf("%d instances", len(g.specs)),
	}
	for a, name := range g.algos {
		ts := g.timesOf(a)
		if len(ts) == 0 {
			continue
		}
		_, max := stats.MinMax(ts)
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%.4f", stats.Median(ts)),
			fmt.Sprintf("%.4f", stats.Mean(ts)),
			fmt.Sprintf("%.4f", max),
		})
	}
	return t
}

// Fig8RunningTime reproduces Figure 8: running time per algorithm variant.
func Fig8RunningTime(results []Result, algos []string) *Table {
	return runningTimeTable("Figure 8: Running time per algorithm variant (seconds)", buildGrid(results, algos))
}

// Fig12RunningTimeLarge reproduces Figure 12: running times on the largest
// workflows in the corpus.
func Fig12RunningTimeLarge(results []Result, algos []string) *Table {
	g := buildGrid(results, algos)
	// "Large" is relative to the corpus at hand: take the top size class
	// present (the paper's large = 20,000-30,000 tasks).
	classRank := map[string]int{"small": 0, "medium": 1, "large": 2}
	top := 0
	for _, s := range g.specs {
		if r := classRank[s.SizeClass()]; r > top {
			top = r
		}
	}
	topName := []string{"small", "medium", "large"}[top]
	sub := g.filter(func(s Spec) bool { return s.SizeClass() == topName })
	t := runningTimeTable(
		fmt.Sprintf("Figure 12: Running time on the largest workflows (%s class)", topName), sub)
	return t
}

// Fig13RunningTimeByDeadline reproduces Figure 13: median running time per
// deadline factor (the paper's finding: time grows with graph size, barely
// with the horizon).
func Fig13RunningTimeByDeadline(results []Result, algos []string) *Table {
	g := buildGrid(results, algos)
	t := &Table{
		Title:   "Figure 13: Median running time (s) by deadline factor",
		Columns: []string{"algorithm"},
		Note:    fmt.Sprintf("%d instances", len(g.specs)),
	}
	for _, df := range DeadlineFactors() {
		t.Columns = append(t.Columns, fmt.Sprintf("x%.1f", df))
	}
	for a, name := range g.algos {
		row := []string{name}
		for _, df := range DeadlineFactors() {
			var ts []float64
			for i, s := range g.specs {
				if s.DeadlineFactor == df {
					ts = append(ts, g.times[i][a])
				}
			}
			if len(ts) == 0 {
				row = append(row, "-")
			} else {
				row = append(row, fmt.Sprintf("%.4f", stats.Median(ts)))
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig14CostRatioByCluster reproduces Figure 14: cost-ratio boxplots split
// by cluster size.
func Fig14CostRatioByCluster(results []Result, algos []string) []*Table {
	g := buildGrid(results, algos)
	var out []*Table
	for _, cl := range []ClusterSize{Small, Large} {
		cl := cl
		sub := g.filter(func(s Spec) bool { return s.Cluster == cl })
		out = append(out, boxPlotTable(fmt.Sprintf("Figure 14: Cost ratio vs ASAP, %s cluster", cl), sub))
	}
	return out
}

// Fig15CostRatioByScenario reproduces Figure 15: cost-ratio boxplots split
// by power-profile scenario.
func Fig15CostRatioByScenario(results []Result, algos []string) []*Table {
	g := buildGrid(results, algos)
	var out []*Table
	for _, sc := range power.Scenarios() {
		sc := sc
		sub := g.filter(func(s Spec) bool { return s.Scenario == sc })
		out = append(out, boxPlotTable(fmt.Sprintf("Figure 15: Cost ratio vs ASAP, scenario %s", sc), sub))
	}
	return out
}

// Fig16CostRatioBySize reproduces Figure 16: cost-ratio boxplots split by
// workflow size class.
func Fig16CostRatioBySize(results []Result, algos []string) []*Table {
	g := buildGrid(results, algos)
	classes := map[string]bool{}
	for _, s := range g.specs {
		classes[s.SizeClass()] = true
	}
	var names []string
	for c := range classes {
		names = append(names, c)
	}
	sort.Strings(names)
	var out []*Table
	for _, c := range names {
		c := c
		sub := g.filter(func(s Spec) bool { return s.SizeClass() == c })
		out = append(out, boxPlotTable(fmt.Sprintf("Figure 16: Cost ratio vs ASAP, %s workflows", c), sub))
	}
	return out
}

// Fig17PerfProfileByCluster reproduces Figure 17: performance profiles
// split by cluster size.
func Fig17PerfProfileByCluster(results []Result, algos []string) []*Table {
	g := buildGrid(results, algos)
	var out []*Table
	for _, cl := range []ClusterSize{Small, Large} {
		cl := cl
		sub := g.filter(func(s Spec) bool { return s.Cluster == cl })
		out = append(out, perfProfileTable(fmt.Sprintf("Figure 17: Performance profile, %s cluster", cl), sub))
	}
	return out
}

// Table2LocalSearchAblation reproduces Table 2: the minimum, maximum and
// arithmetic-mean cost ratio between each refined variant with local
// search and the same variant without (values in [0, 1]; 0 means the LS
// reached zero cost from a positive greedy cost).
func Table2LocalSearchAblation(results []Result) *Table {
	pairs := [][2]string{
		{"slackR-LS", "slackR"},
		{"slackWR-LS", "slackWR"},
		{"pressR-LS", "pressR"},
		{"pressWR-LS", "pressWR"},
	}
	// Group results by (spec, algo).
	costs := map[Spec]map[string]int64{}
	for _, r := range results {
		if costs[r.Spec] == nil {
			costs[r.Spec] = map[string]int64{}
		}
		costs[r.Spec][r.Algo] = r.Cost
	}
	t := &Table{
		Title:   "Table 2: Cost ratio with vs without local search",
		Columns: []string{"algorithm", "min", "max", "avg", "instances"},
		Note:    "ratio = cost with LS / cost without LS on the atacseq+bacass subset",
	}
	for _, pair := range pairs {
		var ratios []float64
		for _, byAlgo := range costs {
			with, ok1 := byAlgo[pair[0]]
			without, ok2 := byAlgo[pair[1]]
			if !ok1 || !ok2 {
				continue
			}
			if without == 0 {
				if with == 0 {
					ratios = append(ratios, 1)
				}
				// with > 0 cannot happen: LS never worsens.
				continue
			}
			ratios = append(ratios, float64(with)/float64(without))
		}
		if len(ratios) == 0 {
			continue
		}
		min, max := stats.MinMax(ratios)
		t.Rows = append(t.Rows, []string{
			pair[1], f2(min), f2(max), f2(stats.Mean(ratios)),
			fmt.Sprintf("%d", len(ratios)),
		})
	}
	return t
}
