// Package obs is the dependency-free observability subsystem threaded
// through every layer of the scheduler: context-propagated trace spans, a
// unified metrics registry with hand-rolled Prometheus text exposition,
// and request-ID plumbing.
//
// Everything is carried through context.Context, so the instrumented
// packages (the solver in internal/solve, tenancy, server) need no new
// constructor parameters and pay essentially nothing when observability
// is not configured:
//
//   - obs.Start(ctx, name) returns a nil *Span when no tracer is
//     installed in ctx, and every Span method is a nil-receiver no-op —
//     the disabled hot path is two context lookups per *stage*.
//   - obs.MeterFrom(ctx) returns a nil *Registry when none is installed,
//     and every registry/metric method is likewise nil-safe.
//
// The algorithm packages (core, greenheft, schedule, heft, ceg, exact)
// do not import obs: they count and time their own work in their Stats,
// and the solver records those as finished spans after the run
// (Span.Child).
//
// The server installs a Tracer, a Registry, and a request ID into each
// request's context; cmd/schedd does the same for its rebalance loop.
// Library users (the facade, the experiment drivers, the benchmarks) run
// with plain contexts and skip all of it.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
)

type ctxKey int

const (
	ctxKeyTracer ctxKey = iota
	ctxKeySpan
	ctxKeyMeter
	ctxKeyReqID
)

// WithTracer installs the tracer; spans started under the returned
// context (via Start) record into it.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKeyTracer, t)
}

// TracerFrom returns the installed tracer, or nil.
func TracerFrom(ctx context.Context) *Tracer {
	t, _ := ctx.Value(ctxKeyTracer).(*Tracer)
	return t
}

// WithMeter installs the metrics registry the instrumented layers record
// into (see MeterFrom).
func WithMeter(ctx context.Context, r *Registry) context.Context {
	if r == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKeyMeter, r)
}

// MeterFrom returns the installed metrics registry, or nil. A nil
// registry is fully usable: every method on it (and on the metric
// handles it returns) is a no-op.
func MeterFrom(ctx context.Context) *Registry {
	r, _ := ctx.Value(ctxKeyMeter).(*Registry)
	return r
}

// WithRequestID attaches a request ID; root spans started under the
// returned context carry it, and it tags the structured request logs.
func WithRequestID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, ctxKeyReqID, id)
}

// RequestIDFrom returns the attached request ID, or "".
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(ctxKeyReqID).(string)
	return id
}

// NewRequestID returns a fresh 16-hex-character request ID.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on the supported platforms; a zero ID
		// beats panicking in a request path.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}
