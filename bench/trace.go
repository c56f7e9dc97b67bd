package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the harness from
// outside the program. Spans of one op share Op; Parent is the ID of the
// span that caused this one (0 for a root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) micros() float64 { return float64(s.EndNS-s.StartNS) / 1e3 }

// tracer keeps spans in a preallocated slice so that recording one is two
// clock reads and a store; the file is written when the workload ends.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) at(when time.Time) int64 { return when.Sub(t.epoch).Nanoseconds() }

// begin opens a span now and returns its ID.
func (t *tracer) begin(parent, op int, name string) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name})
	t.spans[len(t.spans)-1].StartNS = t.at(time.Now())
	return len(t.spans)
}

// end closes the span and returns its duration in microseconds.
func (t *tracer) end(id int) float64 {
	s := &t.spans[id-1]
	s.EndNS = t.at(time.Now())
	return s.micros()
}

// add records a span whose ends were taken elsewhere (an open-loop op is
// timed by its sender goroutine, not by the tracer).
func (t *tracer) add(parent, op int, name string, start, end time.Time) int {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name,
		StartNS: t.at(start), EndNS: t.at(end),
	})
	return len(t.spans)
}

// op records an op's own spans: a root from its due time to its end, with
// the wait before it was sent (open loop only) and the call as children.
func (t *tracer) op(op int, due, sent, end time.Time) {
	root := t.add(0, op, "op", due, end)
	if sent.After(due) {
		t.add(root, op, "wait", due, sent)
	}
	t.add(root, op, "call", sent, end)
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its child spans cover (overlapping children are
// counted once, children are clipped to the parent).
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, upto := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, upto), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				upto = hi
			}
		}
		self[s.ID] = s.EndNS - s.StartNS - covered
	}
	return self
}

// write stores the spans as one JSON object per line.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
