package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/schedule"
)

// plainResponse is SolveResponse without its methods: encoding/json
// renders it by reflection, which is the oracle AppendJSON is held to.
type plainResponse SolveResponse

// indented renders v the way the server's encodeJSON does.
func indented(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkRendering holds every way r is rendered to encoding/json's
// reflective rendering of the same value: AppendJSON on its own, the
// compact json.Marshal that goes through MarshalJSON, and r nested one
// level deeper in a batch item.
func checkRendering(t *testing.T, r *SolveResponse) {
	t.Helper()
	if got, want := r.AppendJSON(nil), indented(t, (*plainResponse)(r)); !bytes.Equal(got, want) {
		t.Fatalf("AppendJSON differs from encoding/json:\n%s\nwant\n%s", got, want)
	}
	got, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal((*plainResponse)(r))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("json.Marshal differs from the reflective rendering:\n%s\nwant\n%s", got, want)
	}
	type plainItem struct {
		Index    int            `json:"index"`
		Response *plainResponse `json:"response,omitempty"`
		Error    *Error         `json:"error,omitempty"`
	}
	batch := BatchResponse{Results: []BatchItem{{Index: 0, Response: r}, {Index: 1, Error: &Error{Code: "c", Message: "m"}}, {Index: 2, Response: r}}}
	plain := struct {
		Results []plainItem `json:"results"`
	}{Results: []plainItem{{Index: 0, Response: (*plainResponse)(r)}, {Index: 1, Error: &Error{Code: "c", Message: "m"}}, {Index: 2, Response: (*plainResponse)(r)}}}
	if got, want := indented(t, batch), indented(t, plain); !bytes.Equal(got, want) {
		t.Fatalf("batch rendering differs from encoding/json:\n%s\nwant\n%s", got, want)
	}
}

// fuzzInput hands out the fuzz bytes as values; past the end it reads
// zeros.
type fuzzInput []byte

func (in *fuzzInput) take(n int) []byte {
	n = min(n, len(*in))
	b := (*in)[:n]
	*in = (*in)[n:]
	return b
}

func (in *fuzzInput) u8() byte {
	if b := in.take(1); len(b) == 1 {
		return b[0]
	}
	return 0
}

func (in *fuzzInput) i64() int64 {
	var b [8]byte
	copy(b[:], in.take(8))
	return int64(binary.BigEndian.Uint64(b[:]))
}

// str takes up to 15 bytes as they are: any byte sequence, invalid
// UTF-8 and control characters included.
func (in *fuzzInput) str() string { return string(in.take(int(in.u8() % 16))) }

// length picks nil (-1), empty (0), or one to three elements.
func (in *fuzzInput) length() int { return int(in.u8()%5) - 1 }

func fuzzSlice[T any](in *fuzzInput, elem func(*fuzzInput) T) []T {
	n := in.length()
	if n < 0 {
		return nil
	}
	s := make([]T, n)
	for i := range s {
		s[i] = elem(in)
	}
	return s
}

func fuzzIntervals(in *fuzzInput) []schedule.IntervalCost {
	return fuzzSlice(in, func(in *fuzzInput) schedule.IntervalCost {
		return schedule.IntervalCost{Start: in.i64(), End: in.i64(), Budget: in.i64(), Energy: in.i64(), Green: in.i64(), Brown: in.i64()}
	})
}

func fuzzResponse(data []byte) *SolveResponse {
	in := fuzzInput(data)
	flags := in.u8()
	return &SolveResponse{
		Variant:      in.str(),
		Mapping:      in.str(),
		ASAPMakespan: in.i64(),
		Deadline:     in.i64(),
		Cost:         in.i64(),
		ASAPCost:     in.i64(),
		PlanCacheHit: flags&1 != 0,
		CacheHit:     flags&2 != 0,
		Coalesced:    flags&4 != 0,
		Schedule: fuzzSlice(&in, func(in *fuzzInput) schedule.Entry {
			return schedule.Entry{Node: int(in.i64()), Name: in.str(), Kind: in.str(), Proc: int(in.i64()), Start: in.i64(), End: in.i64()}
		}),
		Intervals: fuzzIntervals(&in),
		Zones: fuzzSlice(&in, func(in *fuzzInput) schedule.ZoneCost {
			return schedule.ZoneCost{Zone: in.str(), Cost: in.i64(), Intervals: fuzzIntervals(in)}
		}),
		Timings: fuzzSlice(&in, func(in *fuzzInput) StageTiming {
			return StageTiming{Stage: in.str(), Micros: in.i64()}
		}),
	}
}

// FuzzSolveResponseJSON builds a solve answer from the fuzz bytes —
// arbitrary strings, nil and empty slices, any int64, every flag — and
// requires the hand-written renderer to write what encoding/json writes.
func FuzzSolveResponseJSON(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Add(bytes.Repeat([]byte{3}, 256))
	for _, s := range []string{"pressWR-LS", "<", ">", "&", `"`, `\`, "\x00\t\n", "\xff\xfe", "é☃", "\u2028", "\x7f", "  "} {
		data := []byte{7, byte(len(s))}
		data = append(data, s...)
		data = append(data, bytes.Repeat([]byte{2}, 96)...)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRendering(t, fuzzResponse(data))
	})
}

// fill sets every field v reaches to a non-zero value, distinct per
// scalar, and slices to one filled element. A kind it does not know fails
// the test, so that a field of a new shape gets a case here.
func fill(t *testing.T, v reflect.Value, path string, next *int64) {
	*next++
	switch v.Kind() {
	case reflect.String:
		v.SetString("s" + strconv.FormatInt(*next, 10))
	case reflect.Int, reflect.Int64:
		v.SetInt(*next)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fill(t, v.Index(0), path+"[0]", next)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(t, v.Field(i), path+"."+v.Type().Field(i).Name, next)
		}
	default:
		t.Fatalf("%s: no fill for kind %s", path, v.Kind())
	}
}

// TestSolveResponseJSONCoversEveryField renders an answer in which every
// field of SolveResponse, schedule.Entry, schedule.IntervalCost,
// schedule.ZoneCost and StageTiming is set: a field the hand-written
// renderer does not write makes it differ from encoding/json's rendering.
func TestSolveResponseJSONCoversEveryField(t *testing.T) {
	var r SolveResponse
	var next int64
	fill(t, reflect.ValueOf(&r).Elem(), "SolveResponse", &next)
	checkRendering(t, &r)

	// The same answer without the omitempty members, and with the
	// null-or-empty members both ways.
	r.Coalesced, r.Intervals, r.Zones, r.Timings = false, nil, []schedule.ZoneCost{{Zone: "z"}}, nil
	checkRendering(t, &r)
	r.Schedule, r.Zones[0].Intervals, r.Timings = nil, []schedule.IntervalCost{}, []StageTiming{}
	checkRendering(t, &r)
	r.Schedule = []schedule.Entry{}
	checkRendering(t, &r)
}
