package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/power"
	"repro/internal/wfgen"
)

func TestResultsRoundTrip(t *testing.T) {
	in := []Result{
		{
			Spec: Spec{Family: wfgen.Eager, N: 200, Cluster: Large,
				Scenario: power.S3, DeadlineFactor: 1.5, Seed: 9},
			Algo: "pressWR-LS", Cost: 1234, Elapsed: 1500 * time.Microsecond,
		},
		{
			Spec: Spec{Family: wfgen.Bacass, N: 0, Cluster: Small,
				Scenario: power.S1, DeadlineFactor: 3, Seed: 9},
			Algo: BaselineName, Cost: 0, Elapsed: 10 * time.Microsecond,
		},
	}
	var buf bytes.Buffer
	for _, r := range in {
		if err := writeSweepRecord(&buf, recordOf(r)); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := ReadSweepRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	out, err := SweepResults(recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip length %d, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("record %d: %+v != %+v", i, out[i], in[i])
		}
	}
}

func TestResultsFeedFigures(t *testing.T) {
	// An archived sweep stream must regenerate the live run's figures.
	specs := []Spec{}
	for _, sc := range []power.Scenario{power.S1, power.S4} {
		for _, df := range DeadlineFactors() {
			specs = append(specs, Spec{Family: wfgen.Bacass, N: 40, Cluster: Small, Scenario: sc, DeadlineFactor: df, Seed: 3})
		}
	}
	algos := LSAlgorithms()
	names := AlgoNames(algos)
	var buf bytes.Buffer
	results, _, err := Sweep(context.Background(), Jobs(specs, names), algos, &buf, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := ReadSweepRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := SweepResults(recs)
	if err != nil {
		t.Fatal(err)
	}
	orig := Fig4MedianCostRatio(results, names)
	replay := Fig4MedianCostRatio(loaded, names)
	if orig.String() != replay.String() {
		t.Error("figure from persisted results differs from the live run")
	}
}

// TestSweepResultsRejectsCorruption: a record that parses as JSON but
// names no valid result fails the aggregation instead of being dropped.
func TestSweepResultsRejectsCorruption(t *testing.T) {
	cases := []string{
		`{"family":"nope","cluster":"small","scenario":"S1","deadline_factor":2}`,
		`{"family":"eager","cluster":"tiny","scenario":"S1","deadline_factor":2}`,
		`{"family":"eager","cluster":"small","scenario":"S9","deadline_factor":2}`,
		`{"family":"eager","cluster":"small","scenario":"S1","deadline_factor":0.2}`,
		`{"family":"eager","cluster":"small","scenario":"S1","deadline_factor":2,"cost":-4}`,
		`{"family":"eager","cluster":"small","scenario":"S1","deadline_factor":2,"zones":1}`,
	}
	good := `{"family":"eager","cluster":"small","scenario":"S1","deadline_factor":2}`
	for _, line := range cases {
		// The bad line sits between two good ones, so it is neither a
		// torn tail nor alone.
		recs, err := ReadSweepRecords(strings.NewReader(good + "\n" + line + "\n" + good + "\n"))
		if err != nil {
			t.Fatalf("line %s: %v", line, err)
		}
		if _, err := SweepResults(recs); err == nil {
			t.Errorf("line %s accepted", line)
		}
	}
	// A line that is not JSON at all fails the read itself.
	if _, err := ReadSweepRecords(strings.NewReader("{\n" + good + "\n")); err == nil {
		t.Error("non-JSON line accepted")
	}
}
