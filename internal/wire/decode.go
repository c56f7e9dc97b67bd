package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"sync"
)

// Decode parses a request body strictly: it is json.Decoder with
// DisallowUnknownFields, and after the value only JSON whitespace may
// remain. Every body it accepts, every value it decodes and every error
// it returns are encoding/json's.
//
// A *SolveRequest, *BatchRequest or *SubmitWorkflowRequest that points to
// a zero value is first read by a hand-written scanner of the request
// schema. The scanner takes only the plain spelling json.Marshal writes,
// and hands everything else to encoding/json: a string with an escape, a
// control character or a non-ASCII byte, a key that is not an exact field
// name (encoding/json folds case), a key given twice (encoding/json
// merges), null, an integer field holding a fraction, an exponent or a
// value out of range, and anything after the value. It never rejects a
// body. FuzzDecodeMatchesEncodingJSON holds the two decoders equal.
func Decode(body []byte, v any) error {
	if scan(body, v) {
		return nil
	}
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

// scan decodes body into v with a pooled scanner and reports whether it
// did. On false v is untouched.
func scan(body []byte, v any) bool {
	s := scanners.Get().(*scanner)
	defer s.release()
	return s.scan(body, v)
}

func (s *scanner) scan(body []byte, v any) bool {
	if rv := reflect.ValueOf(v); rv.Kind() != reflect.Pointer || rv.IsNil() || !rv.Elem().IsZero() {
		return false // encoding/json merges into a value that is not zero
	}
	s.data, s.pos = body, 0
	switch p := v.(type) {
	case *SolveRequest:
		return whole(s, p, s.solveRequest)
	case *BatchRequest:
		return whole(s, p, s.batchRequest)
	case *SubmitWorkflowRequest:
		return whole(s, p, s.submitRequest)
	}
	return false
}

// whole reads the body into the zero value *p with read, and puts the zero
// value back unless read took the whole body.
func whole[T any](s *scanner, p *T, read func(*T) bool) bool {
	if read(p) && s.end() {
		return true
	}
	var zero T
	*p = zero
	return false
}

// scanner reads one body. Each array is gathered in a scratch slice of its
// element type and copied out at its closing bracket into a slice of
// exactly its length, so a decode allocates the same number of times at
// any size. No array holds an array of its own type, so one scratch slice
// per type suffices.
type scanner struct {
	data []byte
	pos  int

	tasks []Task
	names [][2]int // the span of each task's name in data
	edges []Edge
	ivs   []Interval
	zones []Zone
	strs  []string
	reqs  []SolveRequest
}

var scanners = sync.Pool{New: func() any { return new(scanner) }}

// maxScratch keeps the scratch of an outsized body from living on in the
// pool.
const maxScratch = 1 << 16

func (s *scanner) release() {
	s.data = nil
	clear(s.zones[:cap(s.zones)]) // drop what the scratch points to
	clear(s.strs[:cap(s.strs)])
	clear(s.reqs[:cap(s.reqs)])
	if cap(s.tasks) > maxScratch || cap(s.edges) > maxScratch || cap(s.ivs) > maxScratch {
		return
	}
	scanners.Put(s)
}

// fields records which members of an object have been read, by the
// position of their case in its switch.
type fields uint16

// first marks member i read and reports whether it was not before.
func (f *fields) first(i uint) bool {
	if *f&(1<<i) != 0 {
		return false
	}
	*f |= 1 << i
	return true
}

func (s *scanner) solveRequest(r *SolveRequest) bool {
	var seen fields
	return s.object(func(key []byte) bool {
		switch string(key) {
		case "workflow":
			return seen.first(0) && s.dag(&r.Workflow)
		case "variant":
			return seen.first(1) && s.string(&r.Variant)
		case "mapping":
			return seen.first(2) && s.string(&r.Mapping)
		case "zones":
			return seen.first(3) && list(s, &s.zones, &r.Zones, s.zone)
		case "profile":
			return seen.first(4) && s.profile(&r.Profile)
		case "scenario":
			return seen.first(5) && s.string(&r.Scenario)
		case "zone_scenarios":
			return seen.first(6) && list(s, &s.strs, &r.ZoneScenarios, s.string)
		case "deadline_factor":
			return seen.first(7) && s.float(&r.DeadlineFactor)
		case "intervals":
			return seen.first(8) && s.int(&r.Intervals)
		case "seed":
			return seen.first(9) && s.uint64(&r.Seed)
		}
		return false
	})
}

func (s *scanner) batchRequest(r *BatchRequest) bool {
	var seen fields
	return s.object(func(key []byte) bool {
		return string(key) == "requests" && seen.first(0) && list(s, &s.reqs, &r.Requests, s.solveRequest)
	})
}

func (s *scanner) submitRequest(r *SubmitWorkflowRequest) bool {
	var seen fields
	return s.object(func(key []byte) bool {
		switch string(key) {
		case "workflow":
			return seen.first(0) && s.dag(&r.Workflow)
		case "variant":
			return seen.first(1) && s.string(&r.Variant)
		case "mapping":
			return seen.first(2) && s.string(&r.Mapping)
		case "deadline_factor":
			return seen.first(3) && s.float(&r.DeadlineFactor)
		}
		return false
	})
}

func (s *scanner) dag(p **DAG) bool {
	d := new(DAG)
	var seen fields
	if !s.object(func(key []byte) bool {
		switch string(key) {
		case "tasks":
			return seen.first(0) && s.taskList(&d.Tasks)
		case "edges":
			return seen.first(1) && list(s, &s.edges, &d.Edges, s.edge)
		}
		return false
	}) {
		return false
	}
	*p = d
	return true
}

// taskList reads the tasks and then copies all their names out of the
// body into one string.
func (s *scanner) taskList(p *[]Task) bool {
	s.names = s.names[:0]
	if !list(s, &s.tasks, p, s.task) {
		return false
	}
	size := 0
	for _, n := range s.names {
		size += n[1] - n[0]
	}
	if size == 0 {
		return true
	}
	var b strings.Builder
	b.Grow(size)
	for _, n := range s.names {
		b.Write(s.data[n[0]:n[1]])
	}
	all, at := b.String(), 0
	for i, n := range s.names {
		(*p)[i].Name = all[at : at+n[1]-n[0]]
		at += n[1] - n[0]
	}
	return true
}

// task reads a task but its name, whose span it appends to s.names.
func (s *scanner) task(t *Task) bool {
	var name [2]int
	var seen fields
	ok := s.object(func(key []byte) bool {
		switch string(key) {
		case "name":
			return seen.first(0) && s.span(&name)
		case "weight":
			return seen.first(1) && s.int64(&t.Weight)
		}
		return false
	})
	s.names = append(s.names, name)
	return ok
}

func (s *scanner) edge(e *Edge) bool {
	var seen fields
	return s.object(func(key []byte) bool {
		switch string(key) {
		case "from":
			return seen.first(0) && s.int(&e.From)
		case "to":
			return seen.first(1) && s.int(&e.To)
		case "weight":
			return seen.first(2) && s.int64(&e.Weight)
		}
		return false
	})
}

func (s *scanner) zone(z *Zone) bool {
	var seen fields
	return s.object(func(key []byte) bool {
		switch string(key) {
		case "name":
			return seen.first(0) && s.string(&z.Name)
		case "profile":
			return seen.first(1) && s.profile(&z.Profile)
		}
		return false
	})
}

func (s *scanner) profile(p **Profile) bool {
	pr := new(Profile)
	var seen fields
	if !s.object(func(key []byte) bool {
		return string(key) == "intervals" && seen.first(0) && list(s, &s.ivs, &pr.Intervals, s.interval)
	}) {
		return false
	}
	*p = pr
	return true
}

func (s *scanner) interval(iv *Interval) bool {
	var seen fields
	return s.object(func(key []byte) bool {
		switch string(key) {
		case "start":
			return seen.first(0) && s.int64(&iv.Start)
		case "end":
			return seen.first(1) && s.int64(&iv.End)
		case "budget":
			return seen.first(2) && s.int64(&iv.Budget)
		}
		return false
	})
}

// list reads an array whose elements elem reads, gathering them in
// scratch, and sets *p to a copy of exactly their number: empty, not nil,
// for []. Each element is read in place in scratch, which elem does not
// touch: no element type holds an array of its own type.
func list[T any](s *scanner, scratch *[]T, p *[]T, elem func(*T) bool) bool {
	*scratch = (*scratch)[:0]
	if !s.array(func() bool {
		var zero T
		*scratch = append(*scratch, zero)
		return elem(&(*scratch)[len(*scratch)-1])
	}) {
		return false
	}
	*p = append(make([]T, 0, len(*scratch)), *scratch...)
	return true
}

// object reads an object, handing each member's key to member, which reads
// the value and reports false to give the body up.
func (s *scanner) object(member func(key []byte) bool) bool {
	if !s.next('{') {
		return false
	}
	if s.next('}') {
		return true
	}
	for {
		var key [2]int
		if !s.span(&key) || !s.next(':') || !member(s.data[key[0]:key[1]]) {
			return false
		}
		if !s.next(',') {
			return s.next('}')
		}
	}
}

// array reads an array, calling elem to read each element.
func (s *scanner) array(elem func() bool) bool {
	if !s.next('[') {
		return false
	}
	if s.next(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if !s.next(',') {
			return s.next(']')
		}
	}
}

// next skips whitespace and then c, if c is next.
func (s *scanner) next(c byte) bool {
	s.skipSpace()
	if s.pos < len(s.data) && s.data[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

func (s *scanner) skipSpace() {
	d, i := s.data, s.pos
	for i < len(d) && (d[i] == ' ' || d[i] == '\t' || d[i] == '\n' || d[i] == '\r') {
		i++
	}
	s.pos = i
}

// end reports whether only whitespace is left.
func (s *scanner) end() bool {
	s.skipSpace()
	return s.pos == len(s.data)
}

// span reads a string of printable ASCII with no escape and sets sp to
// the offsets of its contents.
func (s *scanner) span(sp *[2]int) bool {
	if !s.next('"') {
		return false
	}
	d := s.data
	for i := s.pos; i < len(d); i++ {
		if c := d[i]; c == '"' {
			*sp = [2]int{s.pos, i}
			s.pos = i + 1
			return true
		} else if !plain[c] {
			return false
		}
	}
	return false
}

// plain holds the bytes a string may carry as they are and still be read
// by the scanner: ASCII other than control characters, the quote and the
// backslash.
var plain = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

func (s *scanner) string(p *string) bool {
	var sp [2]int
	if !s.span(&sp) {
		return false
	}
	*p = string(s.data[sp[0]:sp[1]])
	return true
}

// number reads a number in JSON's grammar and reports whether it is
// written as an integer, with no fraction and no exponent.
func (s *scanner) number() (lit []byte, integer bool, ok bool) {
	s.skipSpace()
	d, i := s.data, s.pos
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		i = digits(d, i)
	default:
		return nil, false, false
	}
	integer = true
	if i < len(d) && d[i] == '.' {
		if i+1 == len(d) || !isDigit(d[i+1]) {
			return nil, false, false
		}
		i, integer = digits(d, i+1), false
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if i == len(d) || !isDigit(d[i]) {
			return nil, false, false
		}
		i, integer = digits(d, i), false
	}
	lit, s.pos = d[s.pos:i], i
	return lit, integer, true
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// digits returns the end of the run of digits at i.
func digits(d []byte, i int) int {
	for i < len(d) && isDigit(d[i]) {
		i++
	}
	return i
}

// uint64 reads an unsigned integer, as strconv.ParseUint would: no sign,
// and at most 2^64-1.
func (s *scanner) uint64(p *uint64) bool {
	lit, integer, ok := s.number()
	if !ok || !integer || lit[0] == '-' {
		return false
	}
	var n uint64
	for _, c := range lit {
		d := uint64(c - '0')
		if n > (1<<64-1-d)/10 {
			return false
		}
		n = n*10 + d
	}
	*p = n
	return true
}

// int64 reads a signed integer, as strconv.ParseInt would.
func (s *scanner) int64(p *int64) bool {
	lit, integer, ok := s.number()
	if !ok || !integer {
		return false
	}
	neg := lit[0] == '-'
	if neg {
		lit = lit[1:]
	}
	if len(lit) > 19 { // 2^63 has 19 digits; more overflow even unsigned
		return false
	}
	var n uint64
	for _, c := range lit {
		n = n*10 + uint64(c-'0')
	}
	switch {
	case neg && n <= 1<<63:
		*p = -int64(n)
	case !neg && n < 1<<63:
		*p = int64(n)
	default:
		return false
	}
	return true
}

func (s *scanner) int(p *int) bool {
	var n int64
	if !s.int64(&n) || int64(int(n)) != n {
		return false
	}
	*p = int(n)
	return true
}

func (s *scanner) float(p *float64) bool {
	lit, _, ok := s.number()
	if !ok {
		return false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return false
	}
	*p = f
	return true
}
