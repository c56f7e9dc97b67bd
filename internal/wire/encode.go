package wire

import (
	"encoding/json"
	"strconv"

	"repro/internal/schedule"
)

// A solve answer is rendered by hand rather than by encoding/json, which
// builds the compact body by reflection and then re-indents it in a second
// pass. The bytes are the ones json.Encoder writes with SetIndent("", "  "):
// one member or element per line, two spaces per level of nesting, "null"
// for a nil slice without omitempty, "[]" for an empty one, and a trailing
// newline. FuzzSolveResponseJSON holds the two renderings equal.

// AppendJSON appends r's body to b.
func (r *SolveResponse) AppendJSON(b []byte) []byte {
	return AppendTimings(r.AppendHead(b), r.Timings)
}

// MarshalJSON renders r with AppendJSON, so that a SolveResponse nested in
// another body, such as a batch item, is encoded by the same code.
func (r *SolveResponse) MarshalJSON() ([]byte, error) {
	return r.AppendJSON(nil), nil
}

// AppendHead appends r's body up to where its timings member starts: the
// part that is the same for every answer to the same request. AppendTimings
// completes it.
func (r *SolveResponse) AppendHead(b []byte) []byte {
	b = appendKey(append(b, '{'), 1, "variant")
	b = appendString(b, r.Variant)
	b = appendKey(append(b, ','), 1, "mapping")
	b = appendString(b, r.Mapping)
	b = appendKey(append(b, ','), 1, "asap_makespan")
	b = strconv.AppendInt(b, r.ASAPMakespan, 10)
	b = appendKey(append(b, ','), 1, "deadline")
	b = strconv.AppendInt(b, r.Deadline, 10)
	b = appendKey(append(b, ','), 1, "cost")
	b = strconv.AppendInt(b, r.Cost, 10)
	b = appendKey(append(b, ','), 1, "asap_cost")
	b = strconv.AppendInt(b, r.ASAPCost, 10)
	b = appendKey(append(b, ','), 1, "plan_cache_hit")
	b = strconv.AppendBool(b, r.PlanCacheHit)
	b = appendKey(append(b, ','), 1, "cache_hit")
	b = strconv.AppendBool(b, r.CacheHit)
	if r.Coalesced {
		b = appendKey(append(b, ','), 1, "coalesced")
		b = strconv.AppendBool(b, r.Coalesced)
	}
	b = appendKey(append(b, ','), 1, "schedule")
	b = appendArray(b, r.Schedule, 1, appendEntry)
	if len(r.Intervals) > 0 {
		b = appendKey(append(b, ','), 1, "intervals")
		b = appendArray(b, r.Intervals, 1, appendIntervalCost)
	}
	if len(r.Zones) > 0 {
		b = appendKey(append(b, ','), 1, "zones")
		b = appendArray(b, r.Zones, 1, appendZoneCost)
	}
	return b
}

// AppendTimings completes a body AppendHead began: the timings member,
// omitted when there are none, and the closing brace.
func AppendTimings(b []byte, timings []StageTiming) []byte {
	if len(timings) > 0 {
		b = appendKey(append(b, ','), 1, "timings")
		b = appendArray(b, timings, 1, appendStageTiming)
	}
	return append(b, "\n}\n"...)
}

func appendEntry(b []byte, e *schedule.Entry, depth int) []byte {
	b = appendKey(append(b, '{'), depth+1, "node")
	b = strconv.AppendInt(b, int64(e.Node), 10)
	b = appendKey(append(b, ','), depth+1, "name")
	b = appendString(b, e.Name)
	b = appendKey(append(b, ','), depth+1, "kind")
	b = appendString(b, e.Kind)
	b = appendKey(append(b, ','), depth+1, "proc")
	b = strconv.AppendInt(b, int64(e.Proc), 10)
	b = appendKey(append(b, ','), depth+1, "start")
	b = strconv.AppendInt(b, e.Start, 10)
	b = appendKey(append(b, ','), depth+1, "end")
	b = strconv.AppendInt(b, e.End, 10)
	return append(appendNewline(b, depth), '}')
}

func appendIntervalCost(b []byte, iv *schedule.IntervalCost, depth int) []byte {
	b = appendKey(append(b, '{'), depth+1, "start")
	b = strconv.AppendInt(b, iv.Start, 10)
	b = appendKey(append(b, ','), depth+1, "end")
	b = strconv.AppendInt(b, iv.End, 10)
	b = appendKey(append(b, ','), depth+1, "budget")
	b = strconv.AppendInt(b, iv.Budget, 10)
	b = appendKey(append(b, ','), depth+1, "energy")
	b = strconv.AppendInt(b, iv.Energy, 10)
	b = appendKey(append(b, ','), depth+1, "green")
	b = strconv.AppendInt(b, iv.Green, 10)
	b = appendKey(append(b, ','), depth+1, "brown")
	b = strconv.AppendInt(b, iv.Brown, 10)
	return append(appendNewline(b, depth), '}')
}

func appendZoneCost(b []byte, z *schedule.ZoneCost, depth int) []byte {
	b = appendKey(append(b, '{'), depth+1, "zone")
	b = appendString(b, z.Zone)
	b = appendKey(append(b, ','), depth+1, "cost")
	b = strconv.AppendInt(b, z.Cost, 10)
	b = appendKey(append(b, ','), depth+1, "intervals")
	b = appendArray(b, z.Intervals, depth+1, appendIntervalCost)
	return append(appendNewline(b, depth), '}')
}

func appendStageTiming(b []byte, t *StageTiming, depth int) []byte {
	b = appendKey(append(b, '{'), depth+1, "stage")
	b = appendString(b, t.Stage)
	b = appendKey(append(b, ','), depth+1, "micros")
	b = strconv.AppendInt(b, t.Micros, 10)
	return append(appendNewline(b, depth), '}')
}

// appendArray appends s as the value of a member at depth: null when nil,
// [] when empty, and otherwise one element a line, each rendered by elem
// at depth+1.
func appendArray[T any](b []byte, s []T, depth int, elem func([]byte, *T, int) []byte) []byte {
	if s == nil {
		return append(b, "null"...)
	}
	if len(s) == 0 {
		return append(b, "[]"...)
	}
	b = append(b, '[')
	for i := range s {
		if i > 0 {
			b = append(b, ',')
		}
		b = elem(appendNewline(b, depth+1), &s[i], depth+1)
	}
	return append(appendNewline(b, depth), ']')
}

// newline is a line break and the indentation of the deepest line of an
// answer: the members of an interval inside a zone, at depth 5.
const newline = "\n          "

// appendNewline starts a line at depth.
func appendNewline(b []byte, depth int) []byte {
	return append(b, newline[:1+2*depth]...)
}

// appendKey starts the member name at depth, on a line of its own.
func appendKey(b []byte, depth int, name string) []byte {
	b = append(appendNewline(b, depth), '"')
	b = append(b, name...)
	return append(b, `": `...)
}

// appendString appends s as a JSON string. Printable ASCII other than the
// quote, the backslash and the HTML-special <, > and & is copied as is;
// any other string is quoted by encoding/json, so escapes, U+2028, U+2029
// and invalid UTF-8 come out as it writes them.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
