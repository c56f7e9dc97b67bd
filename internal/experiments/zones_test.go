package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/power"
	"repro/internal/wfgen"
)

func TestMultiZoneSpecBuildsZonedInstance(t *testing.T) {
	spec := Spec{
		Family: wfgen.Bacass, N: 40, Cluster: Small, Scenario: power.S1,
		DeadlineFactor: 2, Seed: 42, Zones: 2,
	}
	in, err := BuildInstance(spec)
	if err != nil {
		t.Fatal(err)
	}
	if in.Inst.NumZones() != 2 || in.Zones.NumZones() != 2 {
		t.Fatalf("zones: cluster %d, supply %d", in.Inst.NumZones(), in.Zones.NumZones())
	}
	// Rotated scenarios: zone 0 runs S1, zone 1 runs S2 (anti-correlated).
	if got := in.Zones.Zone(0).Name; got != "z0" {
		t.Errorf("zone 0 named %q", got)
	}
	if !strings.Contains(spec.String(), "/z2") {
		t.Errorf("spec key %q lacks the zone suffix", spec.String())
	}
	single := spec
	single.Zones = 0
	if strings.Contains(single.String(), "/z") {
		t.Errorf("single-zone key %q changed", single.String())
	}
}

// TestMultiZoneSweepRoundTrip runs a miniature multi-zone sweep and round
// trips its records (including the zone count) through the JSONL stream.
func TestMultiZoneSweepRoundTrip(t *testing.T) {
	algos := []Algorithm{baseline(), fromRegistry("pressWR-LS")}
	jobs := []Job{
		{Spec: Spec{Family: wfgen.Bacass, N: 30, Cluster: Small, Scenario: power.S1, DeadlineFactor: 2, Seed: 7, Zones: 2}, Algo: BaselineName},
		{Spec: Spec{Family: wfgen.Bacass, N: 30, Cluster: Small, Scenario: power.S1, DeadlineFactor: 2, Seed: 7, Zones: 2}, Algo: "pressWR-LS"},
	}
	var buf bytes.Buffer
	results, _, err := Sweep(context.Background(), jobs, algos, &buf, SweepOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("%d results", len(results))
	}
	// The zone-aware variant must not be worse than the baseline under
	// the zone-aware evaluation.
	if results[1].Cost > results[0].Cost {
		t.Errorf("pressWR-LS cost %d worse than ASAP %d", results[1].Cost, results[0].Cost)
	}
	recs, err := ReadSweepRecords(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	done := SweepDoneKeys(recs)
	for _, j := range jobs {
		if !done[j.Key()] {
			t.Errorf("job %s missing from the stream", j.Key())
		}
	}
	for _, rec := range recs {
		res, err := resultOf(rec)
		if err != nil {
			t.Fatal(err)
		}
		if res.Spec.Zones != 2 {
			t.Errorf("record lost the zone count: %+v", res.Spec)
		}
	}
}

// TestMultiZoneAblationDrivers: the exported ablation drivers run on
// multi-zone specs (they evaluate through in.Zones), while the
// simulator-backed robustness drivers reject them with a clear error
// instead of failing on a nil profile.
func TestMultiZoneAblationDrivers(t *testing.T) {
	specs := []Spec{{
		Family: wfgen.Bacass, N: 30, Cluster: Small, Scenario: power.S1,
		DeadlineFactor: 2, Seed: 42, Zones: 2,
	}}
	if _, err := AblationK(context.Background(), specs, []int{1, 3}, 1); err != nil {
		t.Errorf("AblationK on multi-zone specs: %v", err)
	}
	if _, err := AblationImprovers(context.Background(), specs, 1); err != nil {
		t.Errorf("AblationImprovers on multi-zone specs: %v", err)
	}
	if _, err := RobustnessRuntime(context.Background(), specs, []float64{0}, 1); err == nil {
		t.Error("RobustnessRuntime silently accepted a multi-zone spec")
	} else if !strings.Contains(err.Error(), "multi-zone") {
		t.Errorf("unhelpful robustness error: %v", err)
	}
}

func TestMultiZoneGridKeysDistinct(t *testing.T) {
	single := MappingGrid(60, 42, 1, 1, nil, []string{BaselineName})
	multi := MappingGrid(60, 42, 1, 3, nil, []string{BaselineName})
	if len(single) != len(multi) {
		t.Fatalf("grid sizes differ: %d vs %d", len(single), len(multi))
	}
	seen := map[string]bool{}
	for _, j := range single {
		seen[j.Key()] = true
	}
	for _, j := range multi {
		if seen[j.Key()] {
			t.Fatalf("multi-zone job key %q collides with the single-zone grid", j.Key())
		}
	}
}
