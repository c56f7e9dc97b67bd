package experiments

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func arrivalTestSpecs() []ArrivalSpec {
	// Two load factors × two zone counts on a tiny workflow: the smallest
	// grid that still exercises the frontier shape.
	return ArrivalGrid(30, 42, []float64{1, 4}, []int{1, 2}, 4)
}

func TestArrivalGridAndKeys(t *testing.T) {
	specs := arrivalTestSpecs()
	if len(specs) != 4 {
		t.Fatalf("2 rates x 2 zone counts built %d cells", len(specs))
	}
	seen := map[string]bool{}
	for _, as := range specs {
		if as.Spec.Tasks() != 30 {
			t.Errorf("%s: maxTasks cap ignored (%d tasks)", as, as.Spec.Tasks())
		}
		key := as.Key()
		if seen[key] {
			t.Errorf("duplicate job key %q", key)
		}
		seen[key] = true
		if !strings.Contains(key, "/a") || !strings.HasSuffix(key, "|online") {
			t.Errorf("job key %q missing /a<rate> suffix or |online tag", key)
		}
	}
	// The /a suffix composes with the multi-zone /z suffix like /m does.
	if key := specs[3].Key(); !strings.Contains(key, "/z2/a4|") {
		t.Errorf("multi-zone arrival key = %q, want .../z2/a4|... spelling", key)
	}
}

func TestRunArrivalsDeterministicFrontier(t *testing.T) {
	if testing.Short() {
		t.Skip("online simulation in -short mode")
	}
	ctx := context.Background()
	specs := arrivalTestSpecs()
	first, err := RunArrivals(ctx, specs, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != len(specs) {
		t.Fatalf("%d results for %d cells", len(first), len(specs))
	}
	for i, r := range first {
		if r.Admitted+r.Rejected != r.Spec.Arrivals {
			t.Errorf("%s: %d admitted + %d rejected != %d arrivals",
				r.Spec, r.Admitted, r.Rejected, r.Spec.Arrivals)
		}
		if r.Admitted == 0 {
			t.Errorf("%s: trace admitted nothing", r.Spec)
		}
		if r.Utilization <= 0 || r.Utilization > 1 {
			t.Errorf("%s: utilization %v out of (0, 1]", r.Spec, r.Utilization)
		}
		if r.SavedCarbon < 0 {
			t.Errorf("%s: rolling horizon lost %d carbon", r.Spec, -r.SavedCarbon)
		}
		if !reflect.DeepEqual(r.Spec, specs[i]) {
			t.Errorf("result %d out of grid order: %s", i, r.Spec)
		}
	}
	// Determinism: the same grid replays to identical results.
	second, err := RunArrivals(ctx, specs, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("arrival sweep not deterministic:\n first %+v\nsecond %+v", first, second)
	}

	table := ArrivalFrontier(first)
	if len(table.Rows) != len(specs) {
		t.Fatalf("frontier has %d rows for %d cells", len(table.Rows), len(specs))
	}
	for i, row := range table.Rows {
		if len(row) != len(table.Columns) {
			t.Fatalf("row %d has %d cells for %d columns", i, len(row), len(table.Columns))
		}
		if row[0] != specs[i].Key() {
			t.Errorf("row %d keyed %q, want %q", i, row[0], specs[i].Key())
		}
	}
	if !strings.Contains(table.String(), "/a4") {
		t.Error("rendered frontier lost the /a<rate> job keys")
	}
}

// TestArrivalResultsPinned pins utilization and carbon on a small grid
// whose traces are long enough for early workflows to finish before the
// last arrivals, so the ledger's accounting of finished work shows.
func TestArrivalResultsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("online simulation in -short mode")
	}
	specs := ArrivalGrid(30, 42, []float64{0.5, 1, 4}, []int{1, 2}, 8)
	results, err := RunArrivals(context.Background(), specs, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"util=0.005022462667679068 admitted=5 rejected=3 admit_cost=0 final_cost=0 moves=0 saved=0 span=1756",
		"util=0.00796146550863532 admitted=5 rejected=3 admit_cost=0 final_cost=0 moves=0 saved=0 span=1113",
		"util=0.014926233287229139 admitted=2 rejected=6 admit_cost=0 final_cost=0 moves=0 saved=0 span=241",
		"util=0.005005360070626813 admitted=5 rejected=3 admit_cost=1681 final_cost=1681 moves=0 saved=0 span=1762",
		"util=0.007968625099920064 admitted=5 rejected=3 admit_cost=2078 final_cost=2078 moves=0 saved=0 span=1112",
		"util=0.012779706790123456 admitted=2 rejected=6 admit_cost=855 final_cost=855 moves=0 saved=0 span=288",
	}
	if len(results) != len(want) {
		t.Fatalf("%d results for %d pinned cells", len(results), len(want))
	}
	for i, r := range results {
		got := fmt.Sprintf("util=%v admitted=%d rejected=%d admit_cost=%d final_cost=%d moves=%d saved=%d span=%d",
			r.Utilization, r.Admitted, r.Rejected, r.AdmittedCost, r.FinalCost, r.Moves, r.SavedCarbon, r.Span)
		if got != want[i] {
			t.Errorf("%s:\n got %s\nwant %s", r.Spec, got, want[i])
		}
	}
}

func TestRunArrivalRejectsBadSpecs(t *testing.T) {
	ctx := context.Background()
	bad := arrivalTestSpecs()[0]
	bad.Rate = 0
	if _, err := RunArrivals(ctx, []ArrivalSpec{bad}, 1, nil); err == nil {
		t.Error("zero load factor accepted")
	}
	bad = arrivalTestSpecs()[0]
	bad.Arrivals = 0
	if _, err := RunArrivals(ctx, []ArrivalSpec{bad}, 1, nil); err == nil {
		t.Error("empty trace accepted")
	}
}
