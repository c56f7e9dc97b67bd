package experiments

import (
	"context"
	"strconv"
	"testing"

	"repro/internal/power"
	"repro/internal/wfgen"
)

func ablationSpecs() []Spec {
	return []Spec{
		{Family: wfgen.Bacass, N: 40, Cluster: Small, Scenario: power.S1, DeadlineFactor: 2, Seed: 5},
		{Family: wfgen.Eager, N: 40, Cluster: Small, Scenario: power.S3, DeadlineFactor: 1.5, Seed: 5},
		{Family: wfgen.Methylseq, N: 40, Cluster: Small, Scenario: power.S2, DeadlineFactor: 3, Seed: 5},
	}
}

func cell(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("bad numeric cell %q: %v", s, err)
	}
	return v
}

func TestAblationK(t *testing.T) {
	tab, err := AblationK(context.Background(), ablationSpecs(), []int{1, 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tab.Rows))
	}
	// More blocks → at least as many intervals.
	j1 := cell(t, tab.Rows[0][3])
	j3 := cell(t, tab.Rows[1][3])
	if j3 < j1 {
		t.Errorf("J' for k=3 (%v) below k=1 (%v)", j3, j1)
	}
	for _, row := range tab.Rows {
		if r := cell(t, row[1]); r < 0 {
			t.Errorf("negative median ratio %v", r)
		}
	}
}

func TestAblationMu(t *testing.T) {
	tab, err := AblationMu(context.Background(), ablationSpecs(), []int64{1, 10}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tab.Rows))
	}
	if tab.Rows[0][0] != "1" || tab.Rows[1][0] != "10" {
		t.Errorf("mu column wrong: %v", tab.Rows)
	}
}

func TestAblationImprovers(t *testing.T) {
	tab, err := AblationImprovers(context.Background(), ablationSpecs(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 (greedy, hill, anneal, both)", len(tab.Rows))
	}
	byName := map[string]float64{}
	for _, row := range tab.Rows {
		byName[row[0]] = cell(t, row[1])
	}
	// Improvers never worsen the greedy's median ratio.
	if byName["hill-climb"] > byName["greedy-only"]+1e-9 {
		t.Errorf("hill climb median %v worse than greedy %v", byName["hill-climb"], byName["greedy-only"])
	}
	if byName["anneal"] > byName["greedy-only"]+1e-9 {
		t.Errorf("anneal median %v worse than greedy %v", byName["anneal"], byName["greedy-only"])
	}
	if byName["hill+anneal"] > byName["hill-climb"]+1e-9 {
		t.Errorf("hill+anneal median %v worse than hill alone %v", byName["hill+anneal"], byName["hill-climb"])
	}
}

func TestExtensionTwoPass(t *testing.T) {
	tab, err := ExtensionTwoPass(context.Background(), ablationSpecs(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 (heft, lowpower, energy)", len(tab.Rows))
	}
	// The EFT row is the reference: ratios exactly 1.
	if tab.Rows[0][0] != "heft" {
		t.Fatalf("first row = %q, want heft", tab.Rows[0][0])
	}
	if v := cell(t, tab.Rows[0][1]); v != 1 {
		t.Errorf("heft cost ratio = %v, want 1", v)
	}
	if v := cell(t, tab.Rows[0][2]); v != 1 {
		t.Errorf("heft makespan ratio = %v, want 1", v)
	}
	// Greener mappings cannot shorten the EFT makespan.
	for _, row := range tab.Rows[1:] {
		if v := cell(t, row[2]); v < 1-1e-9 {
			t.Errorf("%s makespan ratio %v < 1", row[0], v)
		}
	}
}
