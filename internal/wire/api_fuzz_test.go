package wire

import (
	"encoding/json"
	"testing"
)

// FuzzSolveRequestRoundTrip feeds arbitrary JSON into the server's
// solve-request decoder, Decode: it must never panic, and every accepted
// body must re-encode / re-decode into the same request (so no field —
// including the mapping fields added for the zone-aware mapping search —
// is silently dropped on the wire). The seeds cover the mapping/zones
// corners of the format.
func FuzzSolveRequestRoundTrip(f *testing.F) {
	wf := &DAG{Tasks: []Task{{Weight: 40}, {Weight: 80}}, Edges: []Edge{{From: 0, To: 1, Weight: 5}}}
	seedReqs := []*SolveRequest{
		{Workflow: wf, Variant: "pressWR-LS", Scenario: "S3", DeadlineFactor: 2, Seed: 42},
		{Workflow: wf, Mapping: "map-search", ZoneScenarios: []string{"S1", "S2"}},
		{Workflow: wf, Mapping: "zonegreen", Zones: []Zone{
			{Name: "a", Profile: &Profile{Intervals: []Interval{{Start: 0, End: 10, Budget: 3}}}},
			{Name: "b", Profile: &Profile{Intervals: []Interval{{Start: 0, End: 10, Budget: 7}}}},
		}},
		{Workflow: wf, Mapping: "heft", Intervals: 12},
	}
	for _, req := range seedReqs {
		data, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"workflow":{"tasks":[{"weight":1}]},"mapping":"bogus"}`))
	f.Add([]byte(`{"mapping":"map-search"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var req SolveRequest
		if err := Decode(data, &req); err != nil {
			return
		}
		enc, err := json.Marshal(&req)
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		var back SolveRequest
		if err := Decode(enc, &back); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		// Compare canonical encodings (DeepEqual would trip over nil vs
		// empty slices, which the JSON layer cannot distinguish anyway).
		enc2, err := json.Marshal(&back)
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if string(enc) != string(enc2) {
			t.Fatalf("round trip changed the request:\n%s\n%s", enc, enc2)
		}
	})
}
