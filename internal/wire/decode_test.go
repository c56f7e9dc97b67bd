package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/wfgen"
)

// strictDecode is the server's request decoding as encoding/json alone
// does it: the oracle Decode is held to.
func strictDecode(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if rest := bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
		return fmt.Errorf("invalid character %q after the request value", rest[0])
	}
	return nil
}

// checkDecode decodes body into a fresh T with Decode and with
// strictDecode: the error texts must be equal, and when both succeed the
// values must be, nil and empty slices told apart.
func checkDecode[T any](t *testing.T, body []byte) {
	t.Helper()
	var got, want T
	gerr, werr := Decode(body, &got), strictDecode(body, &want)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("%T: Decode error %v, encoding/json %v, on\n%s", got, gerr, werr, body)
	}
	if gerr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%T: Decode gave\n%#v\nencoding/json\n%#v\non\n%s", got, got, want, body)
	}
}

// fullSolveRequest sets every field of a solve request, its workflow and
// its zones to a value other than zero.
func fullSolveRequest() *SolveRequest {
	return &SolveRequest{
		Workflow: &DAG{
			Tasks: []Task{{Name: "prepare_genome", Weight: 115}, {Name: "fastqc_s0_0", Weight: 123}, {Weight: 7}},
			Edges: []Edge{{From: 0, To: 1, Weight: 6}, {From: 1, To: 2}},
		},
		Variant: "pressWR-LS",
		Mapping: "map-search",
		Zones: []Zone{
			{Name: "eu-west", Profile: &Profile{Intervals: []Interval{{Start: 0, End: 10, Budget: 3}, {Start: 10, End: 40, Budget: 900}}}},
			{Name: "us-east", Profile: &Profile{Intervals: []Interval{{Start: 0, End: 40, Budget: 7}}}},
		},
		Profile:        &Profile{Intervals: []Interval{{Start: 0, End: 40, Budget: -2}}},
		Scenario:       "S3",
		ZoneScenarios:  []string{"S1", "S2"},
		DeadlineFactor: 2.75,
		Intervals:      48,
		Seed:           1<<64 - 1,
	}
}

func fullSubmitRequest() *SubmitWorkflowRequest {
	r := fullSolveRequest()
	return &SubmitWorkflowRequest{Workflow: r.Workflow, Variant: r.Variant, Mapping: r.Mapping, DeadlineFactor: 1.5e-3}
}

func fullBatchRequest() *BatchRequest {
	small := SolveRequest{Workflow: &DAG{Tasks: []Task{{Weight: 1}}}, Seed: 1 << 63}
	return &BatchRequest{Requests: []SolveRequest{*fullSolveRequest(), small}}
}

// generatedBody is a request for a generated workflow of n tasks, spelled
// as json.Marshal spells it.
func generatedBody(t testing.TB, n int, seed uint64) []byte {
	t.Helper()
	wf, err := wfgen.Generate(wfgen.Atacseq, n, 7)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(&SolveRequest{
		Workflow:      FromDAG(wf),
		Variant:       "pressWR-LS",
		ZoneScenarios: []string{"S1", "S2", "S3"},
		Seed:          seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// setFields adds, for every struct type reached from v, the fields that
// hold a value other than zero somewhere in v.
func setFields(v reflect.Value, set map[string]bool) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			setFields(v.Elem(), set)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			setFields(v.Index(i), set)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if !v.Field(i).IsZero() {
				set[v.Type().Name()+"."+v.Type().Field(i).Name] = true
			}
			setFields(v.Field(i), set)
		}
	}
}

// structFields lists every field of every struct type reached from t.
func structFields(t reflect.Type, out map[string]bool) {
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice:
		structFields(t.Elem(), out)
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if key := t.Name() + "." + f.Name; !out[key] {
				out[key] = true
				structFields(f.Type, out)
			}
		}
	}
}

// TestDecodeFastPathCovers holds the scanner, not the encoding/json
// fallback, to the spellings clients send: json.Marshal and
// json.MarshalIndent of requests with every field set, a 1 000-task body,
// and a body with a run of trailing whitespace. A field added to a
// request type without scanner support fails it.
func TestDecodeFastPathCovers(t *testing.T) {
	full := []any{fullSolveRequest(), fullSubmitRequest(), fullBatchRequest()}
	for _, v := range full {
		all, set := map[string]bool{}, map[string]bool{}
		structFields(reflect.TypeOf(v), all)
		setFields(reflect.ValueOf(v), set)
		for f := range all {
			if !set[f] {
				t.Errorf("%T: the fixture leaves %s zero everywhere", v, f)
			}
		}
	}

	type body struct {
		name string
		data []byte
		into func() any
	}
	var bodies []body
	for _, v := range full {
		compact, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		indent, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		into := func() any { return reflect.New(reflect.TypeOf(v).Elem()).Interface() }
		name := reflect.TypeOf(v).Elem().Name()
		bodies = append(bodies, body{name + "/compact", compact, into}, body{name + "/indent", indent, into})
	}
	solve := func() any { return new(SolveRequest) }
	bodies = append(bodies,
		body{"1000-task", generatedBody(t, 1000, 1<<63+12345), solve},
		body{"trailing-space", append(generatedBody(t, 200, 42), " \t \t\r\n"...), solve},
	)
	for _, b := range bodies {
		got, want := b.into(), b.into()
		if !scan(b.data, got) {
			t.Errorf("%s: the scanner gave the body up to encoding/json", b.name)
			continue
		}
		if err := strictDecode(b.data, want); err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: scanner gave\n%#v\nencoding/json\n%#v", b.name, got, want)
		}
	}
}

// TestDecodeAllocsFlat: once its scratch has grown, a scanner allocates
// as often for 1 000 tasks as for 200. (Through the pool the count is the
// same, except under the race detector, whose pool drops items.)
func TestDecodeAllocsFlat(t *testing.T) {
	allocs := func(n int) float64 {
		data := generatedBody(t, n, 7)
		var s scanner
		return testing.AllocsPerRun(20, func() {
			var r SolveRequest
			if !s.scan(data, &r) {
				t.Fatal("the scanner gave the body up")
			}
		})
	}
	if small, large := allocs(200), allocs(1000); large > small {
		t.Errorf("decode allocates %.0f times at 1 000 tasks, %.0f at 200", large, small)
	}
}

// TestDecodeLeavesNonZeroToEncodingJSON: encoding/json merges a body into
// the value it is given, so the scanner only takes zero values.
func TestDecodeLeavesNonZeroToEncodingJSON(t *testing.T) {
	body := []byte(`{"workflow":{"tasks":[{"weight":1}]}}`)
	r := SolveRequest{Variant: "slack", Seed: 9}
	if scan(body, &r) {
		t.Fatal("the scanner took a request that was not zero")
	}
	if err := Decode(body, &r); err != nil {
		t.Fatal(err)
	}
	if r.Variant != "slack" || r.Seed != 9 || len(r.Workflow.Tasks) != 1 {
		t.Fatalf("Decode did not merge: %+v", r)
	}
	if scan(body, nil) || scan(body, SolveRequest{}) || scan(body, new(Task)) {
		t.Fatal("the scanner took a value it has no schema for")
	}
}

// edgeBodies are bodies at the edges of what the scanner takes.
var edgeBodies = []string{
	`{"workflow":{"tasks":[{"name":"a\"b","weight":1}]}}`,
	`{"workflow":{"tasks":[{"name":"\u0041\n","weight":1}]}}`,
	`{"workflow":{"tasks":[{"name":"é","weight":1}]}}`,
	"{\"workflow\":{\"tasks\":[{\"name\":\"a\x01\",\"weight\":1}]}}",
	"{\"variant\":\"\x7f\xff\"}",
	`{"Workflow":{"tasks":[{"weight":1}]}}`,
	`{"WORKFLOW":{"Tasks":[{"WEIGHT":1}]},"Seed":3}`,
	`{"variant":"slack","variant":"press"}`,
	`{"workflow":{"tasks":[{"weight":1}]},"workflow":{"edges":[]}}`,
	`{"workflow":{"tasks":[{"weight":1,"weight":2}]}}`,
	`{"workflow":null}`,
	`{"zones":null,"variant":null}`,
	`{"workflow":{"tasks":[{"weight":null}]}}`,
	`null`,
	`{"workflow":{"tasks":[{"weight":-0}]}}`,
	`{"workflow":{"tasks":[{"weight":1e2}]}}`,
	`{"workflow":{"tasks":[{"weight":1.0}]}}`,
	`{"workflow":{"tasks":[{"weight":-9223372036854775808}]}}`,
	`{"workflow":{"tasks":[{"weight":-9223372036854775809}]}}`,
	`{"workflow":{"tasks":[{"weight":9223372036854775807}]}}`,
	`{"workflow":{"tasks":[{"weight":9223372036854775808}]}}`,
	`{"workflow":{"tasks":[{"weight":01}]}}`,
	`{"seed":9223372036854775808}`,
	`{"seed":18446744073709551615}`,
	`{"seed":18446744073709551616}`,
	`{"seed":-0}`,
	`{"seed":-1}`,
	`{"intervals":1e2}`,
	`{"deadline_factor":-0}`,
	`{"deadline_factor":1e400}`,
	`{"deadline_factor":1e-400}`,
	`{"deadline_factor":2.}`,
	`{"deadline_factor":.5}`,
	`{"deadline_factor":1E+2}`,
	`{"deadline_factor":"2"}`,
	`{"workflow":{"tasks":[{"weight":1}]}}x`,
	`{"workflow":{"tasks":[{"weight":1}]}} {}`,
	`{"workflow":{"tasks":[]},"zones":[],"zone_scenarios":[]}`,
	`{"requests":[]}`,
	`{"requests":[{"seed":1},{"variant":"x"}]}`,
	`{"requests":[{"seed":1}],"requests":[]}`,
	`{"workflow":{"tasks":[{"weight":1}]},"unknown":1}`,
	`{"zones":[{"profile":{"intervals":[{"start":0,"end":1,"budget":2}]}},{"name":"b"}]}`,
	`{"profile":{"intervals":[{"start":0,"end":1,"budget":2,"end":3}]}}`,
	`{}`,
	` `,
	``,
	`[]`,
	`{"workflow":{"tasks":[{"weight":1}],}}`,
	`{"workflow" {"tasks":[]}}`,
}

// escapedSolveRequest is fullSolveRequest with strings json.Marshal
// escapes or writes as multi-byte UTF-8 in every string field.
func escapedSolveRequest() *SolveRequest {
	r := fullSolveRequest()
	r.Workflow.Tasks[0].Name = "a\"b\\c"
	r.Workflow.Tasks[1].Name = "<\u2028>&\n"
	r.Variant, r.Mapping, r.Scenario = "é", "\x7f\x01", "\xff"
	r.Zones[0].Name = "\t"
	r.ZoneScenarios = []string{"ü", "/"}
	return r
}

// decodeSeeds returns the fuzzer's seeds: every request type with every
// field set, compact and indented, the solve request again with strings
// that need escapes, and edgeBodies.
func decodeSeeds(tb testing.TB) [][]byte {
	var seeds [][]byte
	for _, v := range []any{fullSolveRequest(), fullSubmitRequest(), fullBatchRequest(), escapedSolveRequest()} {
		for _, indent := range []string{"", "  "} {
			data, err := json.MarshalIndent(v, "", indent)
			if err != nil {
				tb.Fatal(err)
			}
			seeds = append(seeds, data)
		}
	}
	for _, s := range edgeBodies {
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

// FuzzDecodeMatchesEncodingJSON holds Decode to strictDecode on arbitrary
// bytes, for each of the three request types: the same error text, and
// when both accept, the same value.
func FuzzDecodeMatchesEncodingJSON(f *testing.F) {
	for _, seed := range decodeSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode[SolveRequest](t, data)
		checkDecode[BatchRequest](t, data)
		checkDecode[SubmitWorkflowRequest](t, data)
	})
}

// TestDecodeSeeds holds Decode to strictDecode on the fuzzer's seeds and
// on every prefix of each, on every test run.
func TestDecodeSeeds(t *testing.T) {
	for _, seed := range decodeSeeds(t) {
		for i := range len(seed) + 1 {
			checkDecode[SolveRequest](t, seed[:i])
			checkDecode[BatchRequest](t, seed[:i])
			checkDecode[SubmitWorkflowRequest](t, seed[:i])
		}
	}
}
