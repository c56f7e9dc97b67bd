package wire

import (
	"encoding/json"
	"testing"

	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/rng"
)

func testZoneSet(t testing.TB) *power.ZoneSet {
	t.Helper()
	zs, err := power.GenerateZones([]power.ZoneSpec{
		{Name: "eu-west", Scenario: power.S1, Gmin: 100, Gmax: 900},
		{Name: "us-east", Scenario: power.S2, Gmin: 50, Gmax: 400},
		{Name: "ap-south", Scenario: power.S3, Gmin: 0, Gmax: 100},
	}, 480, 24, 11)
	if err != nil {
		t.Fatal(err)
	}
	return zs
}

// TestZoneSetRoundTrip: encode → JSON → decode must reproduce the zone
// set digest-identically.
func TestZoneSetRoundTrip(t *testing.T) {
	zs := testZoneSet(t)
	data, err := json.Marshal(FromZoneSet(zs))
	if err != nil {
		t.Fatal(err)
	}
	var zones []Zone
	if err := json.Unmarshal(data, &zones); err != nil {
		t.Fatal(err)
	}
	back, err := ToZoneSet(zones)
	if err != nil {
		t.Fatal(err)
	}
	if !zs.EqualZoneSet(back) || zs.Digest() != back.Digest() {
		t.Error("round trip changed the zone set")
	}
}

// TestZoneSetSingleUnnamedIsDefault: a lone unnamed zone decodes to the
// default zone, so its solve-cache digest equals the bare profile's.
func TestZoneSetSingleUnnamedIsDefault(t *testing.T) {
	prof, err := power.Generate(power.S4, 100, 8, 10, 90, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	zs, err := ToZoneSet([]Zone{{Profile: FromProfile(prof)}})
	if err != nil {
		t.Fatal(err)
	}
	if zs.Zones[0].Name != power.DefaultZoneName {
		t.Errorf("lone unnamed zone named %q", zs.Zones[0].Name)
	}
	if zs.Digest() != prof.Digest() {
		t.Error("lone unnamed zone does not digest like the bare profile")
	}
}

func TestZoneSetRejectsInvalid(t *testing.T) {
	good := FromProfile(power.Constant(10, 5))
	cases := [][]Zone{
		{},                          // empty
		{{Name: "a", Profile: nil}}, // missing profile
		{{Name: "a", Profile: good}, {Name: "a", Profile: good}},                                // duplicate name
		{{Name: "a", Profile: good}, {Name: "b", Profile: FromProfile(power.Constant(20, 5))}},  // horizon mismatch
		{{Name: "a", Profile: &Profile{Intervals: []Interval{{Start: 5, End: 10, Budget: 1}}}}}, // invalid profile
	}
	for i, zones := range cases {
		if _, err := ToZoneSet(zones); err == nil {
			t.Errorf("case %d: invalid zone list accepted", i)
		}
	}
}

// TestZonedClusterRoundTrip: zone assignments survive the wire, including
// the zones of seed-derived links.
func TestZonedClusterRoundTrip(t *testing.T) {
	orig := platform.SmallZoned(9, 3)
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
	if back.NumZones() != 3 || back.NumCompute() != orig.NumCompute() {
		t.Fatalf("zones %d compute %d", back.NumZones(), back.NumCompute())
	}
	for i := 0; i < orig.NumCompute(); i++ {
		if orig.ZoneOf(i) != back.ZoneOf(i) {
			t.Fatalf("proc %d zone %d → %d", i, orig.ZoneOf(i), back.ZoneOf(i))
		}
		if orig.Proc(i).Type != back.Proc(i).Type {
			t.Fatalf("proc %d type changed", i)
		}
	}
	for _, pair := range [][2]int{{0, 1}, {3, 70}, {71, 0}} {
		a, b := orig.Link(pair[0], pair[1]), back.Link(pair[0], pair[1])
		if orig.ZoneOf(a) != back.ZoneOf(b) {
			t.Errorf("link %v zone changed: %d → %d", pair, orig.ZoneOf(a), back.ZoneOf(b))
		}
	}
}

func TestZonedClusterRejectsGappyZones(t *testing.T) {
	w := Cluster{Groups: []ProcGroup{
		{Speed: 1, Idle: 1, Work: 1, Count: 2, Zone: 0},
		{Speed: 1, Idle: 1, Work: 1, Count: 2, Zone: 2}, // zone 1 missing
	}}
	if _, err := w.ToCluster(); err == nil {
		t.Error("gappy zone ids accepted")
	}
	neg := Cluster{Groups: []ProcGroup{{Speed: 1, Idle: 1, Work: 1, Count: 1, Zone: -1}}}
	if _, err := neg.ToCluster(); err == nil {
		t.Error("negative zone accepted")
	}
}

// FuzzZoneSetRoundTrip feeds arbitrary JSON into the zone-list decoder:
// it must never panic, and everything it accepts must validate and
// re-encode digest-identically (the CI fuzz smoke runs this target).
func FuzzZoneSetRoundTrip(f *testing.F) {
	seed, err := json.Marshal(FromZoneSet(power.SingleZone(power.Constant(10, 5))))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	multi, err := power.NewZoneSet(
		power.Zone{Name: "a", Profile: power.Constant(10, 1)},
		power.Zone{Name: "b", Profile: power.Constant(10, 2)},
	)
	if err != nil {
		f.Fatal(err)
	}
	multiSeed, err := json.Marshal(FromZoneSet(multi))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(multiSeed)
	f.Add([]byte(`[{"name":"x","profile":{"intervals":[{"start":0,"end":3,"budget":7}]}}]`))
	f.Add([]byte(`[{"profile":{"intervals":[{"start":0,"end":0,"budget":-1}]}}]`))
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var zones []Zone
		if err := json.Unmarshal(data, &zones); err != nil {
			return
		}
		zs, err := ToZoneSet(zones)
		if err != nil {
			return
		}
		if err := zs.Validate(); err != nil {
			t.Fatalf("accepted invalid zone set: %v", err)
		}
		back, err := ToZoneSet(FromZoneSet(zs))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !zs.EqualZoneSet(back) || zs.Digest() != back.Digest() {
			t.Fatal("round trip changed the zone set")
		}
	})
}
