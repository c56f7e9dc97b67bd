package solve

import (
	"bytes"
	"context"
	"errors"
	"hash/maphash"
	"sync"
	"sync/atomic"

	"repro/internal/dag"
	"repro/internal/greenheft"
	"repro/internal/obs"
	"repro/internal/power"
)

// This file is the solver's caching/concurrency layer: the one bounded
// store (lru) behind the plan memo, the solve-response cache and the body
// index in front of them, each under one lock, and the singleflight table
// that coalesces concurrent identical solves. solver.go owns the
// scheduling pipeline; everything about how its results are stored,
// shared, and found again lives here.

// SolverOption configures a Solver at construction (NewSolver).
type SolverOption func(*solverConfig)

type solverConfig struct {
	solveCap int
	planCap  int
	tier     CacheTier
}

// WithSolveCacheLimit bounds the solve-response cache to n entries; the
// body index (see Recall) holds at most as many bodies. n <= 0 disables
// both. The default bound is 4096.
func WithSolveCacheLimit(n int) SolverOption {
	return func(c *solverConfig) { c.solveCap = n }
}

// WithPlanCacheLimit bounds the plan memo to n entries. n <= 0 disables
// plan memoization: every plan request builds fresh. The default bound is
// 4096.
func WithPlanCacheLimit(n int) SolverOption {
	return func(c *solverConfig) { c.planCap = n }
}

// WithCacheTier installs an external cache tier consulted between the
// in-process response cache and a full solve (see CacheTier).
func WithCacheTier(t CacheTier) SolverOption {
	return func(c *solverConfig) { c.tier = t }
}

// ---- key digests --------------------------------------------------------

// b2u maps a bool to one digest word.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// sum returns the 64-bit FNV-1a digest of the whole solve key — every
// field that makes two solves interchangeable. Rendered as hex, it keys
// the external cache tier, so a fleet of schedd processes with identical
// builds computes identical tier keys.
func (k solveKey) sum() uint64 {
	h := dag.NewHash()
	h.U64(k.fp)
	h.U64(k.digest)
	h.I64(k.deadline)
	h.U64(uint64(k.opt.Score))
	h.U64(b2u(k.opt.Refined))
	h.U64(b2u(k.opt.LocalSearch))
	h.U64(uint64(k.opt.K))
	h.I64(k.opt.Mu)
	h.U64(uint64(k.policy))
	h.U64(b2u(k.mapSearch))
	return h.Sum64()
}

// ---- the bounded store --------------------------------------------------

// lru is a map bounded to cap entries that evicts the least recently used
// one: the store behind the plan memo, the solve cache, the body index and
// MemoryTier. It is not safe for concurrent use, and must be
// reset in place before use (the recency list is circular through head).
type lru[K comparable, V any] struct {
	cap   int
	items map[K]*lruNode[K, V]
	head  lruNode[K, V] // sentinel: head.next is the most, head.prev the least recently used
}

type lruNode[K comparable, V any] struct {
	key        K
	val        V
	prev, next *lruNode[K, V]
}

// reset drops every entry and keeps the bound.
func (c *lru[K, V]) reset() {
	c.items = make(map[K]*lruNode[K, V])
	c.head.prev, c.head.next = &c.head, &c.head
}

func (c *lru[K, V]) len() int { return len(c.items) }

func (n *lruNode[K, V]) unlink() { n.prev.next, n.next.prev = n.next, n.prev }

func (c *lru[K, V]) pushFront(n *lruNode[K, V]) {
	n.prev, n.next = &c.head, c.head.next
	n.prev.next, n.next.prev = n, n
}

// get returns the value under k and marks it most recently used.
func (c *lru[K, V]) get(k K) (v V, ok bool) {
	n, ok := c.items[k]
	if !ok {
		return v, false
	}
	n.unlink()
	c.pushFront(n)
	return n.val, true
}

// peek returns the value under k and leaves the recency order alone.
func (c *lru[K, V]) peek(k K) (v V, ok bool) {
	if n, ok := c.items[k]; ok {
		return n.val, true
	}
	return v, false
}

// put stores v under k as the most recently used entry, replacing a
// previous value or else evicting the least recently used entry to make
// room. A store with no capacity keeps nothing.
func (c *lru[K, V]) put(k K, v V) {
	if c.cap <= 0 {
		return
	}
	n, ok := c.items[k]
	if ok {
		n.val = v
		n.unlink()
	} else {
		if len(c.items) >= c.cap {
			victim := c.head.prev
			victim.unlink()
			delete(c.items, victim.key)
		}
		n = &lruNode[K, V]{key: k, val: v}
		c.items[k] = n
	}
	c.pushFront(n)
}

// cache is one lru behind one mutex. Its bound is fixed at construction.
type cache[K comparable, V any] struct {
	mu sync.Mutex
	lru[K, V]
	// contended counts lock acquisitions that found the lock held: how an
	// operator sees that the one lock has become a bottleneck.
	contended atomic.Int64
}

// newCache returns an empty cache bounded to limit entries; limit <= 0
// keeps nothing.
func newCache[K comparable, V any](limit int) *cache[K, V] {
	c := &cache[K, V]{}
	c.lru.reset()
	c.cap = max(limit, 0)
	return c
}

// lock locks the cache; the caller unlocks its mu.
func (c *cache[K, V]) lock() {
	if !c.mu.TryLock() {
		c.contended.Add(1)
		c.mu.Lock()
	}
}

// get, peek, put, reset and len are the lru's, under the lock.
func (c *cache[K, V]) get(k K) (V, bool) {
	c.lock()
	defer c.mu.Unlock()
	return c.lru.get(k)
}

func (c *cache[K, V]) peek(k K) (V, bool) {
	c.lock()
	defer c.mu.Unlock()
	return c.lru.peek(k)
}

func (c *cache[K, V]) put(k K, v V) {
	c.lock()
	defer c.mu.Unlock()
	c.lru.put(k, v)
}

func (c *cache[K, V]) reset() {
	c.lock()
	defer c.mu.Unlock()
	c.lru.reset()
}

func (c *cache[K, V]) len() int {
	c.lock()
	defer c.mu.Unlock()
	return c.lru.len()
}

// each calls f on every stored value under the lock.
func (c *cache[K, V]) each(f func(V)) {
	c.lock()
	defer c.mu.Unlock()
	for n := c.head.next; n != &c.head; n = n.next {
		f(n.val)
	}
}

// ---- plan memo and solve-response cache ---------------------------------

// planLookup returns the memoized entry for the key, inserting a fresh
// one on miss. hit is false for the inserting caller (which then builds
// the entry; concurrent lookups of the same key block on its sync.Once).
// With plan caching disabled the fresh entry is returned unmemoized.
func (s *Solver) planLookup(key planKey, wf *dag.DAG, pol greenheft.Policy, zones *power.ZoneSet) (e *planEntry, hit bool) {
	c := s.planMemo
	c.lock()
	defer c.mu.Unlock()
	if e, hit = c.lru.get(key); !hit {
		e = &planEntry{wf: wf, policy: pol, zones: zones}
		c.lru.put(key, e)
	}
	return e, hit
}

// ResetPlans drops every memoized plan (e.g. after a batch of one-off
// workflows). Counters and the solve-response cache are unaffected.
func (s *Solver) ResetPlans() { s.planMemo.reset() }

// shared returns the one stored form of a fresh response: a private
// Schedule, and the fields that belong to a single request cleared. The
// solve cache and the flight's followers share it and never write to it;
// each reader leaves with its own checkout.
func (r *Response) shared() *Response {
	stored := *r
	stored.Schedule = r.Schedule.Clone()
	stored.CacheHit = false
	stored.Coalesced = false
	stored.Timings = nil // stale wall clock must never be served
	return &stored
}

// checkout returns a copy of a shared response that the caller may hand
// out: it owns its Schedule.
func (r *Response) checkout() *Response {
	resp := *r
	resp.Schedule = r.Schedule.Clone()
	return &resp
}

// solveCacheGet returns a cached response for the key, guarded against
// fingerprint/digest collisions by structural comparison with the
// request's actual workflow and zone set.
func (s *Solver) solveCacheGet(key solveKey, wf *dag.DAG, zones *power.ZoneSet) (*Response, *solveEntry) {
	e, ok := s.solveCache.get(key)
	if !ok || !e.wf.Equal(wf) || !e.zones.EqualZoneSet(zones) {
		return nil, nil
	}
	resp := e.resp.checkout()
	resp.CacheHit = true
	return resp, e
}

// solveCachePut stores a shared response under the key; on a collision
// the freshest wins.
func (s *Solver) solveCachePut(key solveKey, wf *dag.DAG, zones *power.ZoneSet, shared *Response) {
	s.solveCache.put(key, &solveEntry{wf: wf, zones: zones.Clone(), resp: shared})
}

// ResetSolveCache drops every cached response and every remembered body.
// Counters are unaffected.
func (s *Solver) ResetSolveCache() {
	s.solveCache.reset()
	s.repeats.reset()
}

// ---- the body index: byte-identical repeats -----------------------------

// A front-end that receives requests as bytes pays to decode them, and
// pays again to encode an answer the caches hold. The body index lets it
// skip both for a request it has answered before: it maps the raw body to
// the answer as sent, and to the two cache entries that answer came from.
// The stored answer is served only while those two are still the resident
// entries under their keys — whatever evicted, reset or overwrote either
// one also, by that check, retired every body that was answered from it.

// residency names the entries that answered one request from the caches:
// the base plan in the memo and the response in the solve cache. A zero
// pointer means that cache did not answer.
type residency struct {
	planKey  planKey
	plan     *planEntry
	solveKey solveKey
	solve    *solveEntry
}

// resident reports whether both entries are still the ones stored under
// their keys, without touching either cache's recency order.
func (s *Solver) resident(o *residency) bool {
	if pe, _ := s.planMemo.peek(o.planKey); pe != o.plan {
		return false
	}
	se, _ := s.solveCache.peek(o.solveKey)
	return se == o.solve
}

// Answer is what a front-end stores beside a request body: the bytes it
// answered with, and what its own accounting needs to count that answer
// again. The solver never reads or writes either.
type Answer struct {
	Body   []byte       // as sent, up to whatever the front-end renders per request
	Carbon []ZoneCarbon // the schedule's energy by zone
}

// ZoneCarbon is one zone's green and brown energy under a schedule.
type ZoneCarbon struct {
	Zone         string
	Green, Brown int64
}

// repeatKey is a body's length and 64-bit hash. It only finds the entry:
// a recall compares the bytes.
type repeatKey struct {
	n    int
	hash uint64
}

// repeatEntry is one remembered body, immutable once stored.
type repeatEntry struct {
	body   []byte
	from   residency
	answer *Answer
}

func (s *Solver) repeatKeyOf(body []byte) repeatKey {
	if s.testBodyHash != nil {
		return repeatKey{n: len(body), hash: s.testBodyHash(body)}
	}
	return repeatKey{n: len(body), hash: maphash.Bytes(s.bodySeed, body)}
}

// Recall answers a request from its raw bytes: if this exact body was
// Remembered and the cache entries that answered it then are still
// resident, it returns the stored answer and the timings of the stages it
// ran; otherwise nil, and the caller decodes the body and calls Solve as
// if Recall had not been called: nothing was counted, and nothing traced
// unless an entry was evicted in the instant between the residency check
// and the consults.
//
// A recall is a Solve that hit the plan memo and the solve cache, told
// apart only by its speed: it consults both caches in Solve's order, so
// their recency orders move alike, advances the same counters, and runs
// under the same "solve" span and schedd_solves_total count. Its stages
// are the two consults, plan and cache; it builds no supply.
func (s *Solver) Recall(ctx context.Context, body []byte) (*Answer, []obs.StageTiming) {
	if s.repeats.cap == 0 {
		return nil, nil
	}
	e, ok := s.repeats.get(s.repeatKeyOf(body))
	if !ok || !bytes.Equal(e.body, body) || ctx.Err() != nil || !s.resident(&e.from) {
		return nil, nil
	}

	ctx, sp := obs.Start(ctx, "solve")
	timings := make([]obs.StageTiming, 0, 2)
	_, st := obs.BeginStage(ctx, obs.StagePlan)
	pe, _ := s.planMemo.get(e.from.planKey)
	if st.Span != nil {
		st.Span.SetAttr("hit", pe == e.from.plan)
		st.Span.SetAttr("tasks", e.from.plan.inst.N())
	}
	st.End(&timings)

	_, st = obs.BeginStage(ctx, obs.StageCache)
	se, _ := s.solveCache.get(e.from.solveKey)
	still := pe == e.from.plan && se == e.from.solve
	if st.Span != nil {
		st.Span.SetAttr("hit", still)
		st.Span.SetAttr("repeat", true)
	}
	st.End(&timings)

	if !still {
		// An entry left between the check and the consult. Solve answers;
		// this request's trace keeps the abandoned attempt.
		sp.SetAttr("abandoned", true)
		sp.End()
		return nil, nil
	}
	s.solves.Add(1)
	s.planHits.Add(1)
	s.solveHits.Add(1)
	s.solveRepeats.Add(1)
	hit := *e.from.solve.resp
	hit.CacheHit, hit.PlanHit = true, true
	finishSolve(ctx, sp, hit.Variant, &hit, nil)
	return e.answer, timings
}

// Repeatable reports whether Remember would keep an answer rendered from
// this response, so that a front-end copies its bytes only then.
func (r *Response) Repeatable() bool { return r.origin.plan != nil && r.origin.solve != nil }

// Remember records that the front-end answered body with answer, the
// rendering of resp. It keeps a copy of body and takes ownership of
// answer. Only an answer that both caches served is kept (resp.CacheHit
// and resp.PlanHit, not coalesced, not from the tier): that makes it the
// second sighting of the request at the earliest, so a body seen once
// costs the index nothing, and it is what names the two entries whose
// residency a recall checks.
func (s *Solver) Remember(body []byte, resp *Response, answer *Answer) {
	if !resp.Repeatable() {
		return
	}
	s.repeats.put(s.repeatKeyOf(body), &repeatEntry{body: bytes.Clone(body), from: resp.origin, answer: answer})
}

// ---- singleflight coalescing --------------------------------------------

// errLeaderAborted is published to followers when a coalesced solve's
// leader unwinds (panics) between election and publication.
var errLeaderAborted = errors.New("cawosched: coalesced solve leader aborted")

// flight is one in-flight cacheable solve that concurrent identical
// requests may join: the leader computes, publishes resp/err, and closes
// done; followers block on done (or their own context) and share the
// result. Error results propagate to every follower but are never
// cached. The workflow and zone set guard followers against joining a
// digest-colliding flight, exactly like the cache's structural guards.
type flight struct {
	wf    *dag.DAG
	zones *power.ZoneSet
	done  chan struct{}
	resp  *Response // the shared form (see Response.shared); nil on error
	err   error
}

// joinFlight coalesces the key's solve. Returns:
//   - (f, true): this request is the leader and must finishFlight f.
//   - (f, false): follower — wait on f.done.
//   - (nil, false): the in-flight leader's key collides structurally:
//     solve solo.
func (s *Solver) joinFlight(key solveKey, wf *dag.DAG, zones *power.ZoneSet) (*flight, bool) {
	s.fmu.Lock()
	defer s.fmu.Unlock()
	if f, ok := s.flights[key]; ok {
		if !f.wf.Equal(wf) || !f.zones.EqualZoneSet(zones) {
			return nil, false
		}
		return f, false
	}
	f := &flight{wf: wf, zones: zones, done: make(chan struct{})}
	s.flights[key] = f
	return f, true
}

// finishFlight publishes the leader's outcome and wakes every follower.
// The caller stores the response into the cache (when applicable) before
// calling, so no later request can land in the gap between flight removal
// and cache insertion.
func (s *Solver) finishFlight(key solveKey, f *flight, resp *Response, err error) {
	s.fmu.Lock()
	delete(s.flights, key)
	s.fmu.Unlock()
	f.resp, f.err = resp, err
	close(f.done)
}
