package obs

import (
	"context"
	"time"
)

// The top-level stages of the request pipeline. A stage has one name: it
// is the name of its span, the Stage of its StageTiming in a response,
// and its label value in schedd_stage_latency_seconds{stage}.
const (
	StagePlan      = "plan"      // plan-memo consult, or the HEFT mapping it misses to
	StageSupply    = "supply"    // the per-zone supply: explicit, or generated from the request
	StageCache     = "cache"     // solve-response cache consult
	StageCoalesce  = "coalesce"  // a follower's wait on an identical in-flight solve
	StageTier      = "tier"      // external cache tier consult (flight leader only)
	StageMap       = "map"       // non-default mapping pass, or the whole map-search
	StageSchedule  = "schedule"  // greedy + local search
	StageAdmission = "admission" // tenancy.Manager.Submit
	StageRebalance = "rebalance" // tenancy.Manager.Rebalance
)

// StageTiming is one top-level stage's wall-clock duration, as surfaced
// in solve responses ("timings") alongside the trace spans.
type StageTiming struct {
	Stage  string `json:"stage"`
	Micros int64  `json:"micros"`
}

// Stage is one open stage (see BeginStage). Span is the stage's span, for
// attributes; it is nil, and as usable as any nil span, without a tracer.
type Stage struct {
	Span  *Span
	name  string
	start time.Time
	hist  HistogramVec
}

// stageLabels is passed as a ready slice so that opening a stage on a
// context without a meter allocates nothing.
var stageLabels = []string{"stage"}

// BeginStage opens the stage name: the returned context is inside its
// span. End closes it.
func BeginStage(ctx context.Context, name string) (context.Context, Stage) {
	st := Stage{
		name:  name,
		start: time.Now(),
		hist: MeterFrom(ctx).Histogram("schedd_stage_latency_seconds",
			"wall-clock latency of scheduler pipeline stages", nil, stageLabels...),
	}
	ctx, st.Span = Start(ctx, name)
	return ctx, st
}

// End closes the stage's span, observes its latency histogram, and
// appends its timing to timings when the caller keeps them (non-nil; it
// is a parameter, not a field, so that the slice's owner does not escape
// with the span). A stage ends once, on the error path too.
func (st Stage) End(timings *[]StageTiming) {
	d := time.Since(st.start)
	st.Span.End()
	if timings != nil {
		*timings = append(*timings, StageTiming{Stage: st.name, Micros: d.Microseconds()})
	}
	st.hist.With(st.name).Observe(d.Seconds())
}
