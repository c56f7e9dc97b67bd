package experiments

import (
	"context"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/wfgen"
)

func TestCorpusFullMatchesPaper(t *testing.T) {
	specs := Corpus(0, 1)
	// 34 workflows × 2 clusters × 4 scenarios × 4 deadlines = 1088.
	if len(specs) != 1088 {
		t.Errorf("full corpus has %d specs, want 1088", len(specs))
	}
	workflows := map[string]bool{}
	for _, s := range specs {
		workflows[s.WorkflowName()] = true
	}
	if len(workflows) != 34 {
		t.Errorf("corpus has %d distinct workflows, want 34", len(workflows))
	}
}

func TestCorpusCap(t *testing.T) {
	specs := Corpus(1000, 1)
	for _, s := range specs {
		if s.Tasks() > 1000 {
			t.Errorf("spec %s exceeds the cap", s)
		}
	}
	// atacseq real (271), 200, 1000; methylseq real (197), 200, 1000;
	// eager real (113), 200, 1000; bacass real (57) = 10 workflows.
	workflows := map[string]bool{}
	for _, s := range specs {
		workflows[s.WorkflowName()] = true
	}
	if len(workflows) != 10 {
		t.Errorf("capped corpus has %d workflows, want 10", len(workflows))
	}
}

func TestAblationCorpusFamilies(t *testing.T) {
	for _, s := range AblationCorpus(500, 1) {
		if s.Family != wfgen.Atacseq && s.Family != wfgen.Bacass {
			t.Errorf("ablation corpus contains %s", s)
		}
	}
}

func TestSpecNaming(t *testing.T) {
	s := Spec{Family: wfgen.Bacass, N: 0, Cluster: Large, Scenario: power.S3, DeadlineFactor: 1.5}
	if s.WorkflowName() != "bacass-real" {
		t.Errorf("WorkflowName = %q", s.WorkflowName())
	}
	if s.Tasks() != wfgen.Bacass.RealSize() {
		t.Errorf("Tasks = %d", s.Tasks())
	}
	if got := s.String(); !strings.Contains(got, "large") || !strings.Contains(got, "S3") {
		t.Errorf("String = %q", got)
	}
	if (Spec{N: 200}).SizeClass() != "small" {
		t.Error("200 tasks should be small")
	}
	if (Spec{N: 10000}).SizeClass() != "medium" {
		t.Error("10000 tasks should be medium")
	}
	if (Spec{N: 25000}).SizeClass() != "large" {
		t.Error("25000 tasks should be large")
	}
}

func TestBuildInstanceDeterministic(t *testing.T) {
	spec := Spec{Family: wfgen.Eager, N: 60, Cluster: Small, Scenario: power.S1, DeadlineFactor: 2, Seed: 5}
	a, err := BuildInstance(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildInstance(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.D != b.D || a.Zones.T() != b.Zones.T() || a.Inst.N() != b.Inst.N() {
		t.Error("BuildInstance not deterministic")
	}
	if a.Zones.T() != int64(float64(a.D)*2+0.5) {
		t.Errorf("T = %d, want 2·D = %d", a.Zones.T(), 2*a.D)
	}
}

func TestAlgorithmsRoster(t *testing.T) {
	algos := Algorithms()
	if len(algos) != 17 {
		t.Fatalf("roster has %d algorithms, want 17 (ASAP + 16)", len(algos))
	}
	if algos[0].Name != BaselineName {
		t.Errorf("first algorithm = %s, want ASAP", algos[0].Name)
	}
	names := map[string]bool{}
	for _, a := range algos {
		if names[a.Name] {
			t.Errorf("duplicate algorithm %s", a.Name)
		}
		names[a.Name] = true
	}
	for _, want := range []string{"slack", "pressWR", "slackWR-LS", "pressR-LS"} {
		if !names[want] {
			t.Errorf("missing variant %s", want)
		}
	}
	if len(LSAlgorithms()) != 9 {
		t.Errorf("LS roster has %d, want 9", len(LSAlgorithms()))
	}
}

// smallRun executes a reduced experiment shared by the figure tests.
func smallRun(t *testing.T) ([]Result, []string) {
	t.Helper()
	specs := []Spec{}
	for _, fam := range []wfgen.Family{wfgen.Bacass, wfgen.Eager} {
		for _, sc := range []power.Scenario{power.S1, power.S4} {
			for _, df := range DeadlineFactors() {
				specs = append(specs, Spec{Family: fam, N: 40, Cluster: Small, Scenario: sc, DeadlineFactor: df, Seed: 3})
			}
		}
	}
	return sweepAll(t, specs, LSAlgorithms()), AlgoNames(LSAlgorithms())
}

// sweepAll runs every algorithm on every spec through Sweep and fails the
// test on any failed job.
func sweepAll(t *testing.T, specs []Spec, algos []Algorithm) []Result {
	t.Helper()
	results, failed, err := Sweep(context.Background(), Jobs(specs, AlgoNames(algos)), algos, io.Discard, SweepOptions{})
	if err != nil || len(failed) > 0 {
		t.Fatalf("sweep: err %v, failed %v", err, failed)
	}
	return results
}

func TestRunProducesAllResults(t *testing.T) {
	results, names := smallRun(t)
	if len(results) != 16*len(names) {
		t.Fatalf("got %d results, want %d", len(results), 16*len(names))
	}
	for _, r := range results {
		if r.Cost < 0 {
			t.Errorf("negative cost for %s on %s", r.Algo, r.Spec)
		}
	}
}

func TestFigureTablesRender(t *testing.T) {
	results, names := smallRun(t)

	fig1 := Fig1Ranks(results, names)
	if len(fig1.Rows) != len(names) {
		t.Errorf("fig1 has %d rows, want %d", len(fig1.Rows), len(names))
	}
	if !strings.Contains(fig1.String(), "rank1") {
		t.Error("fig1 text missing rank columns")
	}

	fig2 := Fig2PerfProfile(results, names)
	if len(fig2.Columns) != 22 {
		t.Errorf("fig2 has %d columns, want 22", len(fig2.Columns))
	}

	fig3 := Fig3PerfProfileByDeadline(results, names)
	if len(fig3) != 4 {
		t.Errorf("fig3 has %d tables, want 4", len(fig3))
	}

	fig4 := Fig4MedianCostRatio(results, names)
	if len(fig4.Rows) != len(names)-1 {
		t.Errorf("fig4 has %d rows, want %d (baseline excluded)", len(fig4.Rows), len(names)-1)
	}

	fig5 := Fig5CostRatioByDeadline(results, names)
	if len(fig5) != 4 {
		t.Errorf("fig5 has %d tables, want 4", len(fig5))
	}

	fig6 := Fig6BoxPlots(results, names)
	if len(fig6.Rows) == 0 {
		t.Error("fig6 empty")
	}

	fig8 := Fig8RunningTime(results, names)
	if len(fig8.Rows) != len(names) {
		t.Errorf("fig8 has %d rows", len(fig8.Rows))
	}

	for _, tab := range [][]*Table{
		Fig14CostRatioByCluster(results, names),
		Fig15CostRatioByScenario(results, names),
		Fig16CostRatioBySize(results, names),
		Fig17PerfProfileByCluster(results, names),
	} {
		for _, tb := range tab {
			if tb.String() == "" {
				t.Error("empty split table")
			}
		}
	}

	fig13 := Fig13RunningTimeByDeadline(results, names)
	if len(fig13.Columns) != 5 {
		t.Errorf("fig13 has %d columns, want 5", len(fig13.Columns))
	}

	fig12 := Fig12RunningTimeLarge(results, names)
	if len(fig12.Rows) == 0 {
		t.Error("fig12 empty")
	}
}

func TestTable1(t *testing.T) {
	tab := Table1Platform()
	if len(tab.Rows) != 6 {
		t.Fatalf("Table 1 has %d rows, want 6", len(tab.Rows))
	}
	if tab.Rows[5][0] != "PT6" || tab.Rows[5][1] != "32" {
		t.Errorf("PT6 row wrong: %v", tab.Rows[5])
	}
}

func TestTable2Ablation(t *testing.T) {
	// Needs both LS and non-LS variants: run the full roster on a tiny
	// ablation-like subset.
	specs := []Spec{
		{Family: wfgen.Bacass, N: 40, Cluster: Small, Scenario: power.S1, DeadlineFactor: 2, Seed: 3},
		{Family: wfgen.Atacseq, N: 40, Cluster: Small, Scenario: power.S3, DeadlineFactor: 3, Seed: 3},
	}
	tab := Table2LocalSearchAblation(sweepAll(t, specs, Algorithms()))
	if len(tab.Rows) != 4 {
		t.Fatalf("Table 2 has %d rows, want 4", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		// Ratios must be within [0, 1]: LS never worsens.
		for _, cell := range row[1:4] {
			var v float64
			if _, err := fmtSscan(cell, &v); err != nil {
				t.Fatalf("bad cell %q", cell)
			}
			if v < 0 || v > 1+1e-9 {
				t.Errorf("ablation ratio %v outside [0, 1]", v)
			}
		}
	}
}

func TestFig7ExactComparison(t *testing.T) {
	algos := LSAlgorithms()
	tab, err := Fig7ExactComparison(context.Background(), 7, algos, 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("fig7 produced no rows")
	}
	// Every ratio median must be within [0, 1]: the optimum divides the
	// heuristic cost.
	for _, row := range tab.Rows {
		var med float64
		if _, err := fmtSscan(row[1], &med); err != nil {
			t.Fatalf("bad median %q", row[1])
		}
		if med < 0 || med > 1+1e-9 {
			t.Errorf("%s median ratio %v outside [0, 1]", row[0], med)
		}
	}
}

// TestFig7ValidatesEverySchedule: a heuristic whose schedule breaks a
// precedence edge must fail Figure 7, even when it is not the cheapest
// and so never reaches the exact solver's incumbent check.
func TestFig7ValidatesEverySchedule(t *testing.T) {
	broken := Algorithm{
		Name: "asap-broken",
		Run: func(ctx context.Context, in *Instance) (*schedule.Schedule, error) {
			// Start one successor with its predecessor, picking an edge
			// whose violation costs no less than ASAP: ASAP comes first in
			// the roster, so this schedule is never the cheapest.
			asap := core.ASAP(in.Inst)
			floor := schedule.CarbonCost(in.Inst, asap, in.Zones)
			for _, e := range in.Inst.G.Edges {
				if in.Inst.Dur[e.From] == 0 {
					continue
				}
				s := core.ASAP(in.Inst)
				s.Start[e.To] = s.Start[e.From]
				if schedule.CarbonCost(in.Inst, s, in.Zones) >= floor {
					return s, nil
				}
			}
			return asap, nil
		},
	}
	algos := append(LSAlgorithms(), broken)
	_, err := Fig7ExactComparison(context.Background(), 7, algos, 2_000_000)
	if err == nil || !strings.Contains(err.Error(), "asap-broken") || !strings.Contains(err.Error(), "violated") {
		t.Fatalf("Fig7 with an infeasible heuristic: err = %v, want its edge violation", err)
	}
}

func TestTableCSV(t *testing.T) {
	tab := &Table{
		Title:   "t",
		Columns: []string{"a", "b"},
		Rows:    [][]string{{"x,y", `q"z`}},
	}
	csv := tab.CSV()
	if !strings.Contains(csv, `"x,y"`) || !strings.Contains(csv, `"q""z"`) {
		t.Errorf("CSV escaping wrong: %q", csv)
	}
}

func TestProgressCallback(t *testing.T) {
	specs := []Spec{
		{Family: wfgen.Bacass, N: 20, Cluster: Small, Scenario: power.S4, DeadlineFactor: 1.5, Seed: 1},
		{Family: wfgen.Bacass, N: 25, Cluster: Small, Scenario: power.S4, DeadlineFactor: 1.5, Seed: 1},
	}
	algos := Algorithms()[:2]
	count := 0
	progress := func(done, total int) {
		count++
		if done != count || total != 4 {
			t.Errorf("progress(%d, %d) on call %d, want (%d, 4)", done, total, count, count)
		}
	}
	if _, _, err := Sweep(context.Background(), Jobs(specs, AlgoNames(algos)), algos, io.Discard,
		SweepOptions{Workers: 2, Progress: progress}); err != nil {
		t.Fatal(err)
	}
	if count != 4 {
		t.Errorf("progress called %d times, want once per job (4)", count)
	}
}

func TestAlgoNames(t *testing.T) {
	if names := AlgoNames(nil); len(names) != 0 {
		t.Errorf("AlgoNames(nil) = %v", names)
	}
	if names := AlgoNames(LSAlgorithms()); len(names) != 9 || names[0] != BaselineName || names[8] != "pressWR-LS" {
		t.Errorf("AlgoNames(LSAlgorithms()) = %v", names)
	}
}

// fmtSscan parses a float cell rendered by the table helpers.
func fmtSscan(s string, v *float64) (int, error) {
	return fmt.Sscanf(s, "%f", v)
}
