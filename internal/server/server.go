// Package server implements schedd's HTTP/JSON front-end over the
// concurrency-safe solve.Solver: a carbon-aware scheduling service
// that many clients drive with workflows against one shared target
// cluster.
//
// Endpoints:
//
//	POST /v1/solve        one workflow + deadline/profile → schedule, cost,
//	                      per-interval carbon breakdown
//	POST /v1/solve/batch  many solve requests fanned out over a bounded
//	                      worker pool; per-request errors are in-band.
//	                      A full queue is refused with 429 + Retry-After
//	POST   /v1/workflows      submit to the multi-tenant online scheduler;
//	                          an unmeetable deadline is 409 admission_rejected
//	GET    /v1/workflows      list submitted workflows (admission order)
//	GET    /v1/workflows/{id} status and committed placement of one workflow
//	DELETE /v1/workflows/{id} cancel, releasing its future reservations
//	GET  /v1/zones        the configured zone set: names, horizon, digest
//	GET  /v1/variants     the canonical variant registry
//	GET  /healthz         liveness/readiness ("ok", or "draining" + 503)
//	GET  /metrics         Prometheus text: cache hit/miss counters, solve
//	                      latency histogram, in-flight gauge, ledger gauges
//
// Request bodies are JSON in the internal/wire format. Every error
// response is {"error": {"code", "message"}} with a stable code from
// internal/scherr; the HTTP status derives from the code. Each request
// runs under a request-scoped context with the configured timeout, so a
// disconnected client or an expired deadline cancels the solve mid-run
// (the solver's hot loops poll the context). Shutdown is graceful:
// SetDraining flips /healthz to 503, and the owner's http.Server.Shutdown
// waits for the in-flight requests to finish.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/scherr"
	"repro/internal/solve"
	"repro/internal/tenancy"
	"repro/internal/wire"
)

// Config tunes the service. The zero value selects sensible defaults.
type Config struct {
	// RequestTimeout bounds each request's solving wall-clock time via a
	// request-scoped context deadline. 0 means the default of 60s;
	// negative disables the deadline (the client's disconnect still
	// cancels).
	RequestTimeout time.Duration
	// BatchWorkers bounds the worker pool shared by all in-flight batch
	// requests. 0 means min(GOMAXPROCS, 16).
	BatchWorkers int
	// MaxBatch caps the number of requests in one batch body
	// (default 256).
	MaxBatch int
	// MaxBodyBytes caps request body sizes (default 8 MiB).
	MaxBodyBytes int64
	// DefaultMapping is applied to requests that leave the "mapping"
	// field empty: a mapping policy name or "map-search". Empty keeps the
	// paper's fixed HEFT mapping. The spelling is validated per request
	// (cmd/schedd validates the flag at startup).
	DefaultMapping string
	// MaxQueue bounds the number of batch items admitted but not yet
	// finished, across all in-flight batch requests. A batch that would
	// push the backlog past the bound is refused whole with 429 and a
	// Retry-After header instead of queueing unboundedly (default 4096).
	MaxQueue int
	// Manager, if set, enables the /v1/workflows and /v1/zones endpoints:
	// the multi-tenant online scheduler with its cluster-state ledger and
	// admission control. Without it those endpoints answer 501.
	Manager *tenancy.Manager
	// Logger, if set, emits one structured request log line per finished
	// request (method, path, status, duration, request ID) and a warning
	// for solves slower than SlowSolve. Nil disables request logging.
	Logger *slog.Logger
	// SlowSolve is the duration above which a solve-family request
	// (solve, batch, workflow submit) is logged at warning level.
	// 0 means the default of 1s; negative disables slow-solve logging.
	SlowSolve time.Duration
	// TraceBuffer is the capacity of the completed-trace ring served by
	// GET /debug/traces (default obs.DefaultTraceBuffer).
	TraceBuffer int
}

const (
	defaultRequestTimeout = 60 * time.Second
	defaultMaxBatch       = 256
	defaultMaxBodyBytes   = 8 << 20
	defaultMaxQueue       = 4096
)

func (c Config) withDefaults() Config {
	if c.RequestTimeout == 0 {
		c.RequestTimeout = defaultRequestTimeout
	}
	if c.BatchWorkers <= 0 {
		c.BatchWorkers = runtime.GOMAXPROCS(0)
		if c.BatchWorkers > 16 {
			c.BatchWorkers = 16
		}
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = defaultMaxBatch
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = defaultMaxBodyBytes
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = defaultMaxQueue
	}
	if c.SlowSolve == 0 {
		c.SlowSolve = time.Second
	}
	if c.TraceBuffer <= 0 {
		c.TraceBuffer = obs.DefaultTraceBuffer
	}
	return c
}

// Server is the HTTP front-end; it implements http.Handler.
type Server struct {
	solver   *solve.Solver
	cfg      Config
	mux      *http.ServeMux
	metrics  *metrics
	tracer   *obs.Tracer
	batchSem chan struct{} // server-wide bounded pool for batched solves
	queued   atomic.Int64  // batch items admitted but not yet finished
	draining atomic.Bool
}

// New returns a server front-ending the given solver.
func New(solver *solve.Solver, cfg Config) *Server {
	s := &Server{
		solver: solver,
		cfg:    cfg.withDefaults(),
		mux:    http.NewServeMux(),
	}
	s.metrics = newMetrics(solver, s.cfg.Manager)
	s.tracer = obs.NewTracer(s.cfg.TraceBuffer)
	s.batchSem = make(chan struct{}, s.cfg.BatchWorkers)
	s.route("POST /v1/solve", "solve", s.handleSolve)
	s.route("POST /v1/solve/batch", "batch", s.handleBatch)
	s.route("POST /v1/workflows", "workflows", s.handleWorkflowSubmit)
	s.route("GET /v1/workflows", "workflows", s.handleWorkflowList)
	s.route("GET /v1/workflows/{id}", "workflows", s.handleWorkflowGet)
	s.route("DELETE /v1/workflows/{id}", "workflows", s.handleWorkflowCancel)
	s.route("GET /v1/zones", "zones", s.handleZones)
	s.route("GET /v1/variants", "variants", s.handleVariants)
	s.route("GET /internal/v1/cache/{key}", "peercache", s.handlePeerCacheGet)
	s.route("PUT /internal/v1/cache/{key}", "peercache", s.handlePeerCachePut)
	s.route("GET /healthz", "healthz", s.handleHealthz)
	s.route("GET /metrics", "metrics", s.handleMetrics)
	s.route("GET /debug/traces", "traces", s.handleTraces)
	return s
}

// ServeHTTP dispatches to the route table.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Registry returns the server's metrics registry, so out-of-request
// instrumented work (cmd/schedd's rebalance loop) and side listeners (the
// -debug-addr mux) record into and scrape the same state.
func (s *Server) Registry() *obs.Registry { return s.metrics.reg }

// Tracer returns the server's trace ring (served by GET /debug/traces).
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// SetDraining marks the server as draining: /healthz starts returning 503
// so load balancers stop routing new traffic, while accepted requests
// keep running to completion. Waiting for them is http.Server.Shutdown's
// job (see cmd/schedd).
func (s *Server) SetDraining() { s.draining.Store(true) }

// tryEnqueue reserves n batch-backlog slots, refusing (without partial
// reservation) when the bound would be exceeded.
func (s *Server) tryEnqueue(n int64) bool {
	for {
		cur := s.queued.Load()
		if cur+n > int64(s.cfg.MaxQueue) {
			return false
		}
		if s.queued.CompareAndSwap(cur, cur+n) {
			return true
		}
	}
}

// statusWriter records the response status for the request metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// observed reports whether the handler takes part in tracing and request
// logging. Scrape and liveness endpoints are exempt: a 5s-interval
// healthz probe or Prometheus scrape would otherwise flush every solve
// trace out of the ring and drown the request log. Peer cache-exchange
// requests are exempt for the same reason — a busy fleet makes one per
// cross-process miss, and they would bury the solve traces they serve.
func observed(name string) bool {
	switch name {
	case "metrics", "healthz", "traces", "peercache":
		return false
	}
	return true
}

// route registers a handler with the shared instrumentation: the
// in-flight gauge, per-handler request/error counters, and — for the
// substantive handlers — the request's observability context (metrics
// registry, tracer, request ID), a root trace span, and structured
// request/slow-solve logging.
func (s *Server) route(pattern, name string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		s.metrics.inFlight.Add(1)
		defer s.metrics.inFlight.Add(-1)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		if !observed(name) {
			h(sw, r)
			s.metrics.observeRequest(name, sw.status)
			return
		}

		// Accept the client's X-Request-ID (so traces and logs join with
		// upstream systems), or mint one; either way echo it back.
		reqID := r.Header.Get("X-Request-ID")
		if !validRequestID(reqID) {
			reqID = obs.NewRequestID()
		}
		w.Header().Set("X-Request-ID", reqID)
		ctx := obs.WithMeter(r.Context(), s.metrics.reg)
		ctx = obs.WithTracer(ctx, s.tracer)
		ctx = obs.WithRequestID(ctx, reqID)
		ctx, sp := obs.Start(ctx, pattern)
		r = r.WithContext(ctx)

		start := time.Now()
		h(sw, r)
		dur := time.Since(start)
		sp.SetAttr("status", sw.status)
		sp.End()
		s.metrics.observeRequest(name, sw.status)
		if s.logger() != nil {
			lg := s.logger().With(
				"method", r.Method,
				"path", r.URL.Path,
				"status", sw.status,
				"duration_ms", dur.Milliseconds(),
				"request_id", reqID,
			)
			if s.cfg.SlowSolve > 0 && dur >= s.cfg.SlowSolve {
				lg.Warn("slow request")
			} else {
				lg.Info("request")
			}
		}
	})
}

// validRequestID reports whether a client's X-Request-ID may be echoed,
// logged and kept in the trace ring: 1–128 bytes of visible ASCII. The
// header itself may run to the 1 MiB header limit, and the ring retains
// TraceBuffer of them.
func validRequestID(id string) bool {
	if len(id) == 0 || len(id) > 128 {
		return false
	}
	for i := 0; i < len(id); i++ {
		if id[i] < '!' || id[i] > '~' {
			return false
		}
	}
	return true
}

// logger returns the configured request logger (nil disables logging).
func (s *Server) logger() *slog.Logger { return s.cfg.Logger }

// requestContext derives the request-scoped solving context: the client's
// own context (canceled when it disconnects) bounded by the configured
// timeout.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	if s.cfg.RequestTimeout > 0 {
		return context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	}
	return context.WithCancel(r.Context())
}

// encodeJSON writes v in the service's one rendering: two-space indented.
func encodeJSON(w io.Writer, v any) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) // a write error means the client is gone; nothing to do
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	encodeJSON(w, v)
}

func (s *Server) writeError(w http.ResponseWriter, werr *wire.Error) {
	s.writeJSON(w, scherr.StatusForCode(werr.Code), wire.ErrorResponse{Error: werr})
}

// bufPool recycles the buffers request bodies are read into and solve
// answers are encoded into.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBuf keeps the odd multi-megabyte batch body from living on in
// the pool.
const maxPooledBuf = 1 << 20

func putBuf(b *bytes.Buffer) {
	if b.Cap() <= maxPooledBuf {
		b.Reset()
		bufPool.Put(b)
	}
}

// readBody reads the size-capped request body into a pooled buffer, which
// the caller hands back with putBuf. On failure it writes the
// invalid_request error itself and returns nil.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) *bytes.Buffer {
	buf := bufPool.Get().(*bytes.Buffer)
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)); err != nil {
		putBuf(buf)
		s.writeError(w, &wire.Error{Code: scherr.CodeInvalidRequest, Message: "decoding request body: " + err.Error()})
		return nil
	}
	return buf
}

// decodeBody parses a JSON request body strictly with wire.Decode:
// unknown fields are rejected, and after the value only JSON whitespace
// may remain. On failure it writes the invalid_request error itself and
// returns false.
func (s *Server) decodeBody(w http.ResponseWriter, body []byte, v any) bool {
	if err := wire.Decode(body, v); err != nil {
		s.writeError(w, &wire.Error{Code: scherr.CodeInvalidRequest, Message: "decoding request body: " + err.Error()})
		return false
	}
	return true
}

// decode reads and parses a request body (size-capped, strict).
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	buf := s.readBody(w, r)
	if buf == nil {
		return false
	}
	defer putBuf(buf)
	return s.decodeBody(w, buf.Bytes(), v)
}

// errorBody maps a solve error to the wire error body, classifying it
// with the stable scherr code (unclassified errors become "internal").
func errorBody(err error) *wire.Error {
	code := scherr.Code(err)
	if code == "" {
		code = scherr.CodeInternal
	}
	return &wire.Error{Code: code, Message: err.Error()}
}

// buildRequest converts a wire solve request into a solver request.
// defaultMapping fills an empty "mapping" field before parsing.
func buildRequest(wreq *wire.SolveRequest, defaultMapping string) (solve.Request, error) {
	var req solve.Request
	if wreq.Workflow == nil {
		return req, fmt.Errorf("missing workflow")
	}
	wf, err := wreq.Workflow.ToDAG()
	if err != nil {
		return req, err
	}
	req.Workflow = wf
	req.Variant = wreq.Variant
	mapping := wreq.Mapping
	if mapping == "" {
		mapping = defaultMapping
	}
	req.MappingPolicy, req.MapSearch, err = solve.ParseMapping(mapping)
	if err != nil {
		return req, err
	}
	req.DeadlineFactor = wreq.DeadlineFactor
	req.Intervals = wreq.Intervals
	req.Seed = wreq.Seed
	switch {
	case len(wreq.Zones) > 0:
		zones, err := wire.ToZoneSet(wreq.Zones)
		if err != nil {
			return req, err
		}
		req.Zones = zones
	case wreq.Profile != nil:
		prof, err := wreq.Profile.ToProfile()
		if err != nil {
			return req, err
		}
		req.Zones = power.SingleZone(prof)
	default:
		if wreq.Scenario != "" {
			sc, err := power.ParseScenario(wreq.Scenario)
			if err != nil {
				return req, err
			}
			req.Scenario = sc
		}
		for _, name := range wreq.ZoneScenarios {
			sc, err := power.ParseScenario(name)
			if err != nil {
				return req, err
			}
			req.ZoneScenarios = append(req.ZoneScenarios, sc)
		}
	}
	return req, nil
}

// buildResponse flattens a solver response for the wire, attaching the
// exported schedule and the per-zone, per-interval carbon breakdown
// (single-zone solves additionally keep the legacy top-level interval
// list, so pre-zone clients read exactly what they always did).
func buildResponse(res *solve.Response) *wire.SolveResponse {
	zones := schedule.CostBreakdown(res.Instance, res.Schedule, res.Zones)
	out := &wire.SolveResponse{
		Variant:      res.Variant,
		Mapping:      res.Mapping,
		ASAPMakespan: res.D,
		Deadline:     res.Deadline,
		Cost:         res.Cost,
		ASAPCost:     res.ASAPCost,
		PlanCacheHit: res.PlanHit,
		CacheHit:     res.CacheHit,
		Coalesced:    res.Coalesced,
		Schedule:     schedule.Export(res.Instance, res.Schedule),
		Zones:        zones,
		Timings:      res.Timings,
	}
	if res.Zones.Single() {
		out.Intervals = zones[0].Intervals
	}
	return out
}

// solveOne runs one wire request through the solver with the sweep
// engine's isolation idiom: a panic anywhere in planning or scheduling
// becomes an in-band internal error instead of killing the server (the
// net/http panic recovery would kill the whole connection, and a batch).
//
// res is the solver's own response, which Solver.Remember needs beside
// the rendered one.
func (s *Server) solveOne(ctx context.Context, wreq *wire.SolveRequest) (resp *wire.SolveResponse, res *solve.Response, werr *wire.Error) {
	defer func() {
		if p := recover(); p != nil {
			resp, res = nil, nil
			werr = &wire.Error{Code: scherr.CodeInternal, Message: fmt.Sprintf("panic: %v", p)}
		}
	}()
	req, err := buildRequest(wreq, s.cfg.DefaultMapping)
	if err != nil {
		return nil, nil, &wire.Error{Code: scherr.CodeInvalidRequest, Message: err.Error()}
	}
	res, err = s.solver.Solve(ctx, req)
	if err != nil {
		return nil, nil, errorBody(err)
	}
	out := buildResponse(res)
	s.metrics.observeCarbon(out.Zones)
	return out, res, nil
}

// solveOutcome classifies one solve for the latency histogram's
// outcome label.
func solveOutcome(resp *wire.SolveResponse, werr *wire.Error) string {
	switch {
	case werr != nil:
		return "error"
	case resp.CacheHit:
		return "cache_hit"
	default:
		return "ok"
	}
}

// writeAnswer sends a rendered solve answer in up to two pieces.
func writeAnswer(w http.ResponseWriter, head, tail []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(head)+len(tail)))
	w.WriteHeader(http.StatusOK)
	w.Write(head) // a write error means the client is gone; nothing to do
	w.Write(tail)
}

// handleSolve answers a byte-identical repeat of a request the caches
// answered before with the bytes it sent then (see Solver.Recall), and
// everything else by decoding, solving and encoding.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	body := s.readBody(w, r)
	if body == nil {
		return
	}
	defer putBuf(body)
	ctx, cancel := s.requestContext(r)
	defer cancel()
	start := time.Now()
	if answer, timings := s.solver.Recall(ctx, body.Bytes()); answer != nil {
		s.metrics.observeLatency("cache_hit", time.Since(start))
		for _, c := range answer.Carbon {
			s.metrics.addCarbon(c.Zone, c.Green, c.Brown)
		}
		body.Reset() // recalled: the request's bytes have done their work
		writeAnswer(w, answer.Body, wire.AppendTimings(body.AvailableBuffer(), timings))
		return
	}

	var wreq wire.SolveRequest
	if !s.decodeBody(w, body.Bytes(), &wreq) {
		return
	}
	start = time.Now()
	resp, res, werr := s.solveOne(ctx, &wreq)
	s.metrics.observeLatency(solveOutcome(resp, werr), time.Since(start))
	if werr != nil {
		s.writeError(w, werr)
		return
	}
	out := bufPool.Get().(*bytes.Buffer)
	defer putBuf(out)
	out.Write(resp.AppendHead(out.AvailableBuffer()))
	head := out.Bytes()
	writeAnswer(w, head, wire.AppendTimings(out.AvailableBuffer(), resp.Timings))
	if res.Repeatable() {
		s.remember(body.Bytes(), res, resp, head)
	}
}

// remember stores the answer just sent beside the body it answered: the
// bytes up to the timings, and the energy observeCarbon counted for it.
func (s *Server) remember(body []byte, res *solve.Response, resp *wire.SolveResponse, head []byte) {
	answer := &solve.Answer{Body: bytes.Clone(head), Carbon: make([]solve.ZoneCarbon, len(resp.Zones))}
	for i, z := range resp.Zones {
		green, brown := zoneEnergy(z)
		answer.Carbon[i] = solve.ZoneCarbon{Zone: z.Zone, Green: green, Brown: brown}
	}
	s.solver.Remember(body, res, answer)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var breq wire.BatchRequest
	if !s.decode(w, r, &breq) {
		return
	}
	if len(breq.Requests) == 0 {
		s.writeError(w, &wire.Error{Code: scherr.CodeInvalidRequest, Message: "empty batch"})
		return
	}
	if len(breq.Requests) > s.cfg.MaxBatch {
		s.writeError(w, &wire.Error{
			Code:    scherr.CodeInvalidRequest,
			Message: fmt.Sprintf("batch of %d exceeds the limit of %d", len(breq.Requests), s.cfg.MaxBatch),
		})
		return
	}
	// Backpressure: admit the batch only if its items fit in the bounded
	// backlog; otherwise refuse the whole request now rather than holding
	// the connection while an unbounded queue drains. The client owns the
	// retry (Retry-After is a hint sized to the pool's drain rate).
	if !s.tryEnqueue(int64(len(breq.Requests))) {
		w.Header().Set("Retry-After", "1")
		s.writeError(w, &wire.Error{
			Code: scherr.CodeOverloaded,
			Message: fmt.Sprintf("batch queue full (%d items in flight, limit %d): %s",
				s.queued.Load(), s.cfg.MaxQueue, scherr.ErrOverloaded.Error()),
		})
		return
	}
	defer s.queued.Add(-int64(len(breq.Requests)))
	ctx, cancel := s.requestContext(r)
	defer cancel()

	// Fan out over the server-wide bounded pool. Results land at their
	// request's index, so the response order matches the request order
	// regardless of worker interleaving (the sequencer idiom of the sweep
	// engine, with random access instead of reordering). Once the request
	// context is canceled, queued items fail fast without waiting for a
	// worker slot.
	results := make([]wire.BatchItem, len(breq.Requests))
	var wg sync.WaitGroup
	for i := range breq.Requests {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			item := wire.BatchItem{Index: i}
			start := time.Now()
			select {
			case s.batchSem <- struct{}{}:
				item.Response, _, item.Error = s.solveOne(ctx, &breq.Requests[i])
				s.metrics.observeLatency(solveOutcome(item.Response, item.Error), time.Since(start))
				<-s.batchSem
			case <-ctx.Done():
				// A fast-failed item is still one observed batch item: its
				// latency is the time spent queued before the cancellation.
				item.Error = errorBody(scherr.Canceled(ctx.Err()))
				s.metrics.observeLatency("error", time.Since(start))
			}
			results[i] = item
		}(i)
	}
	wg.Wait()
	s.writeJSON(w, http.StatusOK, wire.BatchResponse{Results: results})
}

func (s *Server) handleVariants(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, wire.VariantsResponse{
		Variants: core.VariantNames(),
		Default:  solve.DefaultVariant,
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.writeJSON(w, http.StatusServiceUnavailable, wire.HealthResponse{Status: "draining"})
		return
	}
	s.writeJSON(w, http.StatusOK, wire.HealthResponse{Status: "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	s.metrics.reg.WriteText(w)
}

func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	s.tracer.ServeHTTP(w, r)
}
