package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/power"
	"repro/internal/wfgen"
)

// antiCorrelatedSpecs is the mapping acceptance family: the anti-correlated
// 2-zone scenario cells (zone 1 runs the scenario one position after zone
// 0) across all four workflow families.
func antiCorrelatedSpecs() []Spec {
	var specs []Spec
	for _, fam := range wfgen.Families() {
		for _, n := range []int{40, 80} {
			for _, sc := range []power.Scenario{power.S1, power.S2} {
				for _, df := range []float64{2, 3} {
					specs = append(specs, Spec{
						Family: fam, N: n, Cluster: Small, Scenario: sc,
						DeadlineFactor: df, Seed: 42, Zones: 2,
					})
				}
			}
		}
	}
	return specs
}

// TestMapSearchNeverWorseOnMultiZoneFamily is the acceptance criterion of
// the mapping layer: on the anti-correlated multi-zone sweep family,
// map-search carbon must be ≤ the fixed-mapping carbon on every instance
// and strictly lower on at least one — and the improvement must be
// visible in the mapping-ablation table.
func TestMapSearchNeverWorseOnMultiZoneFamily(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-instance acceptance sweep")
	}
	ctx := context.Background()
	algo := fromRegistry("pressWR-LS")
	var results []Result
	strictly := 0
	for _, spec := range antiCorrelatedSpecs() {
		fixedIn, err := BuildInstance(spec)
		if err != nil {
			t.Fatal(err)
		}
		msSpec := spec
		msSpec.Mapping = MapSearch
		msIn, err := BuildInstance(msSpec)
		if err != nil {
			t.Fatal(err)
		}
		fixedCost, err := runBest(ctx, fixedIn, algo)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		msCost, err := runBest(ctx, msIn, algo)
		if err != nil {
			t.Fatalf("%s: %v", msSpec, err)
		}
		if msCost > fixedCost {
			t.Errorf("%s: map-search cost %d > fixed %d", spec, msCost, fixedCost)
		}
		if msCost < fixedCost {
			strictly++
		}
		results = append(results,
			Result{Spec: spec, Algo: algo.Name, Cost: fixedCost},
			Result{Spec: msSpec, Algo: algo.Name, Cost: msCost})
	}
	if strictly == 0 {
		t.Error("map-search never strictly beat the fixed mapping on the anti-correlated family")
	}

	// The same facts must be visible in the mapping-ablation output: a
	// map-search row with strict wins and no losses.
	table := MappingTable(results)
	var row []string
	for _, r := range table.Rows {
		if r[0] == MapSearch {
			row = r
		}
	}
	if row == nil {
		t.Fatalf("mapping table has no map-search row:\n%s", table.String())
	}
	if row[5] != "0" {
		t.Errorf("map-search row reports %s worse cells, want 0:\n%s", row[5], table.String())
	}
	if row[4] == "0" {
		t.Errorf("map-search row reports no strictly better cells:\n%s", table.String())
	}
}

// TestMappingGridKeys: mapping cells carry /m<mapping> job keys, the
// fixed mapping keeps the legacy key (so mixed streams resume), and the
// grid nests mappings inside each spec cell.
func TestMappingGridKeys(t *testing.T) {
	mappings := []string{"fixed", "zonegreen", MapSearch}
	jobs := MappingGrid(100, 42, 1, 2, mappings, []string{"ASAP", "pressWR-LS"})
	legacy := MappingGrid(100, 42, 1, 2, nil, []string{"ASAP", "pressWR-LS"})
	if len(jobs) != 3*len(legacy) {
		t.Fatalf("%d jobs, want 3 × %d", len(jobs), len(legacy))
	}
	seen := map[string]bool{}
	for _, j := range jobs {
		key := j.Key()
		if seen[key] {
			t.Fatalf("duplicate job key %q", key)
		}
		seen[key] = true
		switch j.Spec.Mapping {
		case "":
			if strings.Contains(key, "/m") {
				t.Fatalf("fixed-mapping key %q carries a mapping suffix", key)
			}
		default:
			if !strings.Contains(key, "/m"+j.Spec.Mapping+"|") {
				t.Fatalf("key %q missing /m%s suffix", key, j.Spec.Mapping)
			}
		}
	}
	// Every legacy key is present verbatim, so resuming a pre-mapping
	// JSONL stream skips exactly the fixed cells.
	for _, j := range legacy {
		if !seen[j.Key()] {
			t.Fatalf("legacy key %q missing from the mapping grid", j.Key())
		}
	}
}

// TestSweepMappingRecordsRoundTrip: a sweep over mapping jobs streams
// records whose mapping field survives the JSONL round trip and feeds the
// resume skip-set.
func TestSweepMappingRecordsRoundTrip(t *testing.T) {
	// Deadline factor 3: enough slack that the slower zoneenergy mapping
	// stays feasible under the fixed mapping's horizon (a tighter factor
	// records its infeasibility in-band instead, which map-search absorbs
	// but a single-policy cell reports).
	spec := Spec{Family: wfgen.Bacass, N: 30, Cluster: Small, Scenario: power.S1,
		DeadlineFactor: 3, Seed: 7, Zones: 2}
	var jobs []Job
	for _, m := range []string{"", "zoneenergy", MapSearch} {
		sp := spec
		sp.Mapping = m
		jobs = append(jobs, Job{Spec: sp, Algo: "pressWR-LS"})
	}
	var buf bytes.Buffer
	results, _, err := Sweep(context.Background(), jobs, Algorithms(), &buf, SweepOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(jobs) {
		t.Fatalf("%d results for %d jobs", len(results), len(jobs))
	}
	recs, err := ReadSweepRecords(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	done := SweepDoneKeys(recs)
	for i, j := range jobs {
		if results[i].Spec != j.Spec {
			t.Errorf("result %d spec %v, want %v", i, results[i].Spec, j.Spec)
		}
		if !done[j.Key()] {
			t.Errorf("key %q missing from the resume set", j.Key())
		}
	}
	back, err := SweepResults(recs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range back {
		if back[i].Spec.Mapping != jobs[i].Spec.Mapping {
			t.Errorf("record %d lost its mapping: %q", i, back[i].Spec.Mapping)
		}
	}
	// Unknown mappings in a record are rejected on read.
	bad := strings.Replace(buf.String(), `"mapping":"zoneenergy"`, `"mapping":"bogus"`, 1)
	recs, err = ReadSweepRecords(strings.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SweepResults(recs); err == nil {
		t.Error("bogus mapping record accepted")
	}
}

// TestBuildInstanceMappedPolicies: single-policy specs remap the workflow
// but keep the fixed mapping's horizon and supply, and map-search specs
// materialize one candidate per policy with the fixed instance first.
func TestBuildInstanceMappedPolicies(t *testing.T) {
	base := Spec{Family: wfgen.Eager, N: 40, Cluster: Small, Scenario: power.S2,
		DeadlineFactor: 2, Seed: 5, Zones: 2}
	fixed, err := BuildInstance(base)
	if err != nil {
		t.Fatal(err)
	}
	mapped := base
	mapped.Mapping = "zonegreen"
	in, err := BuildInstance(mapped)
	if err != nil {
		t.Fatal(err)
	}
	if !in.Zones.EqualZoneSet(fixed.Zones) {
		t.Error("mapped spec generated a different supply than the fixed mapping")
	}
	if in.Candidates != nil {
		t.Error("single-policy spec carries candidates")
	}
	ms := base
	ms.Mapping = MapSearch
	msIn, err := BuildInstance(ms)
	if err != nil {
		t.Fatal(err)
	}
	if len(msIn.Candidates) != 5 {
		t.Fatalf("map-search built %d candidates, want 5", len(msIn.Candidates))
	}
	if msIn.Candidates[0].Mapping != "heft" || msIn.Candidates[0].Inst != msIn.Inst {
		t.Error("candidate 0 is not the fixed mapping")
	}
	bogus := base
	bogus.Mapping = "bogus"
	if _, err := BuildInstance(bogus); err == nil {
		t.Error("unknown mapping spec accepted")
	}
}

// TestZoneShiftTable: the per-zone load-shift table reports one row per
// zone with sane shares, and rejects single-zone specs.
func TestZoneShiftTable(t *testing.T) {
	specs := []Spec{
		{Family: wfgen.Atacseq, N: 40, Cluster: Small, Scenario: power.S1, DeadlineFactor: 2, Seed: 42, Zones: 2},
		{Family: wfgen.Methylseq, N: 40, Cluster: Small, Scenario: power.S2, DeadlineFactor: 3, Seed: 42, Zones: 2},
	}
	table, err := ZoneShiftTable(context.Background(), specs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 2 {
		t.Fatalf("%d rows, want one per zone:\n%s", len(table.Rows), table.String())
	}
	for _, row := range table.Rows {
		if len(row) != len(table.Columns) {
			t.Fatalf("row %v vs columns %v", row, table.Columns)
		}
	}
	if _, err := ZoneShiftTable(context.Background(), []Spec{{Family: wfgen.Bacass, N: 30, Cluster: Small,
		Scenario: power.S1, DeadlineFactor: 2, Seed: 1}}, 1); err == nil {
		t.Error("single-zone spec accepted by the zone-shift table")
	}
}
