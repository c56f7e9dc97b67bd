package wire

import (
	"encoding/json"
	"testing"

	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/rng"
	"repro/internal/wfgen"
)

// TestDAGRoundTrip: encode → JSON → decode must reproduce the workflow
// structurally (dag.Equal) for every generator family.
func TestDAGRoundTrip(t *testing.T) {
	for _, fam := range wfgen.Families() {
		d, err := wfgen.Generate(fam, 80, 7)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(FromDAG(d))
		if err != nil {
			t.Fatal(err)
		}
		var w DAG
		if err := json.Unmarshal(data, &w); err != nil {
			t.Fatal(err)
		}
		back, err := w.ToDAG()
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		if !d.Equal(back) {
			t.Errorf("%s: round trip changed the workflow", fam)
		}
		if d.Fingerprint() != back.Fingerprint() {
			t.Errorf("%s: round trip changed the fingerprint", fam)
		}
	}
}

func TestDAGRejectsInvalid(t *testing.T) {
	cases := []DAG{
		{}, // no tasks
		{Tasks: []Task{{Weight: 1}}, Edges: []Edge{{From: 0, To: 5}}},                                // endpoint range
		{Tasks: []Task{{Weight: 1}, {Weight: 1}}, Edges: []Edge{{From: 0, To: 1}, {From: 1, To: 0}}}, // cycle
		{Tasks: []Task{{Weight: -3}}},                                              // negative weight
		{Tasks: []Task{{Weight: 1}, {Name: "forgot-weight"}}},                      // omitted weight must not default
		{Tasks: []Task{{Weight: 1}, {Weight: 1}}, Edges: []Edge{{From: 0, To: 0}}}, // self-loop
	}
	for i, w := range cases {
		if _, err := w.ToDAG(); err == nil {
			t.Errorf("case %d: invalid workflow accepted", i)
		}
	}
}

// TestProfileRoundTrip: generated and constant profiles survive the wire
// unchanged (digest-identical).
func TestProfileRoundTrip(t *testing.T) {
	gen, err := power.Generate(power.S2, 480, 24, 100, 900, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*power.Profile{gen, power.Constant(100, 42)} {
		data, err := json.Marshal(FromProfile(p))
		if err != nil {
			t.Fatal(err)
		}
		var w Profile
		if err := json.Unmarshal(data, &w); err != nil {
			t.Fatal(err)
		}
		back, err := w.ToProfile()
		if err != nil {
			t.Fatal(err)
		}
		if !p.EqualProfile(back) || p.Digest() != back.Digest() {
			t.Error("round trip changed the profile")
		}
	}
}

func TestProfileRejectsInvalid(t *testing.T) {
	cases := []Profile{
		{}, // empty
		{Intervals: []Interval{{Start: 5, End: 10, Budget: 1}}},                       // gap at 0
		{Intervals: []Interval{{Start: 0, End: 10, Budget: 1}, {Start: 12, End: 20}}}, // gap
		{Intervals: []Interval{{Start: 0, End: 10, Budget: -1}}},                      // negative budget
		{Intervals: []Interval{{Start: 0, End: 0, Budget: 1}}},                        // empty interval
	}
	for i, w := range cases {
		if _, err := w.ToProfile(); err == nil {
			t.Errorf("case %d: invalid profile accepted", i)
		}
	}
}

// TestClusterRoundTrip: the paper clusters survive the wire with identical
// processors and identical deterministic link powers.
func TestClusterRoundTrip(t *testing.T) {
	orig := platform.Small(9)
	data, err := json.Marshal(FromCluster(orig))
	if err != nil {
		t.Fatal(err)
	}
	var w Cluster
	if err := json.Unmarshal(data, &w); err != nil {
		t.Fatal(err)
	}
	back, err := w.ToCluster()
	if err != nil {
		t.Fatal(err)
	}
	if back.NumCompute() != orig.NumCompute() {
		t.Fatalf("compute count %d → %d", orig.NumCompute(), back.NumCompute())
	}
	for i := 0; i < orig.NumCompute(); i++ {
		if orig.Proc(i).Type != back.Proc(i).Type {
			t.Fatalf("proc %d type changed: %+v → %+v", i, orig.Proc(i).Type, back.Proc(i).Type)
		}
	}
	// Same link seed → identical seed-derived link powers.
	for _, pair := range [][2]int{{0, 1}, {3, 70}, {71, 0}} {
		a := orig.Proc(orig.Link(pair[0], pair[1])).Type
		b := back.Proc(back.Link(pair[0], pair[1])).Type
		if a.Idle != b.Idle || a.Work != b.Work {
			t.Errorf("link %v powers changed: %+v → %+v", pair, a, b)
		}
	}
	// Six Table-1 groups of 12, in order.
	if got := FromCluster(orig); len(got.Groups) != 6 {
		t.Errorf("Small cluster compressed to %d groups, want 6", len(got.Groups))
	}
}

func TestClusterRejectsInvalid(t *testing.T) {
	cases := []Cluster{
		{}, // no groups
		{Groups: []ProcGroup{{Speed: 0, Count: 1}}},           // zero speed
		{Groups: []ProcGroup{{Speed: 4, Idle: -1, Count: 1}}}, // negative power
		{Groups: []ProcGroup{{Speed: 4, Count: 0}}},           // zero count
	}
	for i, w := range cases {
		if _, err := w.ToCluster(); err == nil {
			t.Errorf("case %d: invalid cluster accepted", i)
		}
	}
}
