package obs

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestStartDisabled pins the disabled fast path: without a tracer the
// span is nil, the context is returned unchanged, and every span method
// is a no-op.
func TestStartDisabled(t *testing.T) {
	ctx := context.Background()
	got, sp := Start(ctx, "solve")
	if sp != nil {
		t.Fatalf("span without a tracer: %v", sp)
	}
	if got != ctx {
		t.Fatalf("context was rewrapped on the disabled path")
	}
	// All nil-receiver no-ops.
	sp.SetAttr("k", 1)
	sp.End()
	if d := sp.Duration(); d != 0 {
		t.Fatalf("nil span duration %v", d)
	}
}

// TestSpanTree builds a root with nested and sibling children and checks
// the published trace's structure, attributes, and request ID.
func TestSpanTree(t *testing.T) {
	tr := NewTracer(4)
	ctx := WithRequestID(WithTracer(context.Background(), tr), "req-1")
	ctx, root := Start(ctx, "solve")
	if root == nil {
		t.Fatal("no root span")
	}
	root.SetAttr("variant", "pressWR-LS")
	cctx, plan := Start(ctx, "plan")
	plan.SetAttr("hit", true)
	_, inner := Start(cctx, "heft")
	inner.End()
	plan.End()
	_, sched := Start(ctx, "schedule")
	sched.End()
	root.End()

	traces := tr.Snapshot()
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	got := traces[0]
	if got.ID != "req-1" {
		t.Fatalf("trace id %q", got.ID)
	}
	if got.Root.Name != "solve" || got.Root.Attrs["variant"] != "pressWR-LS" {
		t.Fatalf("root %+v", got.Root)
	}
	if len(got.Root.Children) != 2 {
		t.Fatalf("root has %d children, want 2", len(got.Root.Children))
	}
	p := got.Root.Children[0]
	if p.Name != "plan" || p.Attrs["hit"] != true || len(p.Children) != 1 || p.Children[0].Name != "heft" {
		t.Fatalf("plan child %+v", p)
	}
	if got.Root.DurationMS <= 0 {
		t.Fatalf("root duration %v", got.Root.DurationMS)
	}
}

// TestTracerRing checks that the ring retains only the newest N traces.
func TestTracerRing(t *testing.T) {
	tr := NewTracer(3)
	for i := 0; i < 5; i++ {
		ctx := WithTracer(context.Background(), tr)
		_, sp := Start(ctx, string(rune('a'+i)))
		sp.End()
	}
	snap := tr.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("ring holds %d, want 3", len(snap))
	}
	// Newest first: e, d, c.
	for i, want := range []string{"e", "d", "c"} {
		if snap[i].Root.Name != want {
			t.Fatalf("snap[%d] = %q, want %q", i, snap[i].Root.Name, want)
		}
	}
}

// TestSpanDiscard: a discarded root never reaches the ring, and a later
// End does not resurrect it; nil-receiver Discard is a no-op.
func TestSpanDiscard(t *testing.T) {
	tr := NewTracer(4)
	ctx := WithTracer(context.Background(), tr)
	_, idle := Start(ctx, "idle")
	idle.Discard()
	idle.End()
	_, kept := Start(ctx, "kept")
	kept.End()
	snap := tr.Snapshot()
	if len(snap) != 1 || snap[0].Root.Name != "kept" {
		t.Fatalf("ring after discard: %+v", snap)
	}
	var nilSpan *Span
	nilSpan.Discard()
}

// TestTracesHandler drives the /debug/traces handler: limit and min_ms
// filters over a populated ring.
func TestTracesHandler(t *testing.T) {
	tr := NewTracer(8)
	ctx := WithTracer(context.Background(), tr)
	_, fast := Start(ctx, "fast")
	fast.End()
	_, slow := Start(ctx, "slow")
	time.Sleep(15 * time.Millisecond)
	slow.End()

	rec := httptest.NewRecorder()
	tr.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?min_ms=10", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var resp TracesResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Traces) != 1 || resp.Traces[0].Root.Name != "slow" {
		t.Fatalf("min_ms filter: %+v", resp.Traces)
	}

	rec = httptest.NewRecorder()
	tr.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?n=1", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Traces) != 1 || resp.Traces[0].Root.Name != "slow" {
		t.Fatalf("n filter: %+v", resp.Traces)
	}
}

// TestRequestID checks propagation and the generator's shape.
func TestRequestID(t *testing.T) {
	ctx := WithRequestID(context.Background(), "abc")
	if got := RequestIDFrom(ctx); got != "abc" {
		t.Fatalf("request id %q", got)
	}
	if got := RequestIDFrom(context.Background()); got != "" {
		t.Fatalf("empty ctx request id %q", got)
	}
	id1, id2 := NewRequestID(), NewRequestID()
	if len(id1) != 16 || id1 == id2 {
		t.Fatalf("generated ids %q, %q", id1, id2)
	}
}

// BenchmarkStartDisabled measures the tracing-off fast path the
// schedulers pay per stage: two context lookups returning nil.
func BenchmarkStartDisabled(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := Start(ctx, "stage")
		sp.SetAttr("k", 1)
		sp.End()
	}
}

// BenchmarkStartEnabled measures one traced child span start/end.
func BenchmarkStartEnabled(b *testing.B) {
	tr := NewTracer(64)
	ctx := WithTracer(context.Background(), tr)
	ctx, root := Start(ctx, "root")
	defer root.End()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, sp := Start(ctx, "stage")
		sp.End()
	}
}

// TestStage pins the stage primitive: one name becomes the span, the
// timing and the histogram label; and a stage on a bare context — the
// library and benchmark path — allocates nothing.
func TestStage(t *testing.T) {
	tr, reg := NewTracer(4), NewRegistry()
	ctx, root := Start(WithMeter(WithTracer(context.Background(), tr), reg), "solve")
	var timings []StageTiming
	sctx, st := BeginStage(ctx, StageCache)
	if SpanFrom(sctx) != st.Span || st.Span == nil {
		t.Fatal("the stage's context is not inside the stage's span")
	}
	st.End(&timings)
	_, st = BeginStage(ctx, StageAdmission)
	st.End(nil) // timings not kept
	root.End()

	if len(timings) != 1 || timings[0].Stage != StageCache {
		t.Errorf("timings = %+v, want the one kept stage", timings)
	}
	got := tr.Snapshot()[0].Root.Children
	if len(got) != 2 || got[0].Name != StageCache || got[1].Name != StageAdmission {
		t.Errorf("spans = %+v, want one per stage, named as the stage", got)
	}
	text := reg.RenderText()
	for _, stage := range []string{StageCache, StageAdmission} {
		if want := `schedd_stage_latency_seconds_count{stage="` + stage + `"} 1`; !strings.Contains(text, want) {
			t.Errorf("exposition lacks %s:\n%s", want, text)
		}
	}

	bare := context.Background()
	timings = make([]StageTiming, 0, 1)
	if n := testing.AllocsPerRun(100, func() {
		timings = timings[:0]
		_, st := BeginStage(bare, StagePlan)
		st.End(&timings)
	}); n != 0 {
		t.Errorf("a stage on a bare context allocates %v times, want 0", n)
	}
}
