package obs

import (
	"context"
	"sync"
	"time"
)

// Span is one timed, attributed section of a trace. Spans form a tree:
// the root span is created by Start under a context carrying a Tracer
// (the server's request wrapper), child spans by Start under a context
// carrying a parent span. When the root span Ends, the completed tree is
// snapshotted into the tracer's ring buffer.
//
// A nil *Span is the disabled instrument: every method is a nil-receiver
// no-op, so instrumented code never branches on "is tracing on".
//
// Spans are safe for concurrent use: parallel stages (batch items) may
// attach children and set attributes from multiple goroutines.
type Span struct {
	name  string
	start time.Time
	reqID string  // root only
	trace *Tracer // root only
	root  *Span

	mu       sync.Mutex
	dur      time.Duration // 0 until End
	attrs    []Attr
	children []*Span
}

// Attr is one span attribute. Values should be small JSON-encodable
// scalars (string, bool, int64, float64).
type Attr struct {
	Key   string
	Value any
}

// Start begins a span named name. Under a context already inside a span
// it starts a child; otherwise, if the context carries a Tracer, it
// starts a new root (tagged with the context's request ID). With neither
// it returns ctx unchanged and a nil span — the disabled fast path.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	if parent, ok := ctx.Value(ctxKeySpan).(*Span); ok && parent != nil {
		sp := &Span{name: name, start: time.Now(), root: parent.root}
		parent.mu.Lock()
		parent.children = append(parent.children, sp)
		parent.mu.Unlock()
		return context.WithValue(ctx, ctxKeySpan, sp), sp
	}
	tr := TracerFrom(ctx)
	if tr == nil {
		return ctx, nil
	}
	sp := &Span{name: name, start: time.Now(), trace: tr, reqID: RequestIDFrom(ctx)}
	sp.root = sp
	return context.WithValue(ctx, ctxKeySpan, sp), sp
}

// Child attaches to s a child span that is already finished: it began at
// start and lasted d. It is how a layer that keeps no tracer (the
// schedulers, which only time their phases) still shows up in the trace:
// its caller turns the measured durations into spans afterwards. On a nil
// s it returns nil.
func (s *Span) Child(name string, start time.Time, d time.Duration) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, start: start, dur: max(d, 1), root: s.root}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// SpanFrom returns the span the context is inside, or nil.
func SpanFrom(ctx context.Context) *Span {
	sp, _ := ctx.Value(ctxKeySpan).(*Span)
	return sp
}

// SetAttr records one attribute on the span.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// End finishes the span. Ending the root span publishes the whole trace
// to the tracer; End is idempotent (the first call wins).
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.dur == 0 {
		s.dur = time.Since(s.start)
		if s.dur == 0 {
			s.dur = 1 // monotone clocks can tick 0 on trivial spans
		}
	}
	done := s.trace != nil
	s.mu.Unlock()
	if done {
		s.trace.add(s.snapshot())
	}
}

// Discard finishes the span without publishing: a root span that
// Discards never reaches the tracer's ring. Periodic no-op work (an idle
// rebalance pass with nothing to consider) uses it so a fast housekeeping
// loop cannot flood the bounded buffer and evict real request traces. On
// a child span it is equivalent to End (the child stays in its parent's
// tree); calling End after Discard does not resurrect the trace.
func (s *Span) Discard() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.dur == 0 {
		s.dur = time.Since(s.start)
		if s.dur == 0 {
			s.dur = 1
		}
	}
	s.trace = nil
	s.mu.Unlock()
}

// Duration returns the span's recorded duration (0 before End).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dur
}

// SpanData is the JSON shape of one completed span.
type SpanData struct {
	Name       string         `json:"name"`
	StartMS    float64        `json:"start_ms"` // offset from the trace start
	DurationMS float64        `json:"duration_ms"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	Children   []*SpanData    `json:"children,omitempty"`
}

// Trace is one completed root span tree as served by /debug/traces.
type Trace struct {
	ID    string    `json:"id,omitempty"` // the request ID, when one was attached
	Start time.Time `json:"start"`
	Root  *SpanData `json:"root"`
}

// snapshot freezes the finished tree into its wire shape.
func (s *Span) snapshot() *Trace {
	return &Trace{ID: s.reqID, Start: s.start, Root: s.data(s.start)}
}

func (s *Span) data(base time.Time) *SpanData {
	s.mu.Lock()
	dur := s.dur
	if dur == 0 {
		// A child left running when the root ended (e.g. an abandoned
		// batch item): freeze it at the snapshot moment.
		dur = time.Since(s.start)
	}
	d := &SpanData{
		Name:       s.name,
		StartMS:    float64(s.start.Sub(base)) / float64(time.Millisecond),
		DurationMS: float64(dur) / float64(time.Millisecond),
	}
	if len(s.attrs) > 0 {
		d.Attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			d.Attrs[a.Key] = a.Value
		}
	}
	children := s.children
	s.mu.Unlock()
	for _, c := range children {
		d.Children = append(d.Children, c.data(base))
	}
	return d
}
