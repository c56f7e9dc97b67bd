package solve

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/greenheft"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/schedule"
)

// CacheTier is a pluggable external cache consulted between the
// in-process solve-response cache and a full solve: Get/Put on serialized
// solve records keyed by the hex solve-key digest. It is the seam that
// lets a fleet of schedd instances share warm solves: PeerTier fans Get
// out to the fleet, MemoryTier is its local store and the tests' double.
//
// Implementations must be safe for concurrent use and are treated as
// caches, not sources of truth: a Get may miss arbitrarily, records that
// fail validation against the requesting key are ignored, and Put is
// fire-and-forget (a tier that drops writes only costs re-solves). Only
// successful responses are ever stored. A coalesced herd consults the
// tier once — the flight leader queries on behalf of every follower.
//
// Both methods take the request's context so a remote tier can honor the
// caller's cancellation and deadline: a canceled or expired context must
// degrade Get to a miss (never an error, never a block) and may drop the
// Put. MemoryTier ignores the context; PeerTier bounds every network hop
// with it.
type CacheTier interface {
	// Get returns the record stored under key, if any. A canceled ctx is
	// a miss.
	Get(ctx context.Context, key string) ([]byte, bool)
	// Put stores a record under key, overwriting any previous one. Put
	// must not block the caller on slow storage (it is called on the
	// solve path with the response already computed).
	Put(ctx context.Context, key string, value []byte)
}

// tierKey renders a solve key for the external tier: the hex FNV-1a
// digest of every field that makes two solves interchangeable. Identical
// builds compute identical keys, so schedd processes sharing a tier share
// warm solves.
func tierKey(key solveKey) string {
	return strconv.FormatUint(key.sum(), 16)
}

// tierRecord is the serialized form of one cached solve: the full cache
// key (so a digest collision is detected by field comparison, the
// cross-process analogue of the in-memory caches' structural guards) plus
// the response payload. The schedule travels as its start-time vector —
// the instance itself is rebuilt from the local plan memo, which also
// revalidates the workflow structurally.
type tierRecord struct {
	// Key fields (must equal the requesting key, else the record is
	// ignored).
	Fingerprint uint64 `json:"fp"`
	ZoneDigest  uint64 `json:"zd"`
	Deadline    int64  `json:"deadline"`
	Score       int    `json:"score"`
	Refined     bool   `json:"refined,omitempty"`
	LocalSearch bool   `json:"ls,omitempty"`
	K           int    `json:"k"`
	Mu          int64  `json:"mu"`
	Policy      int    `json:"policy"`
	MapSearch   bool   `json:"map_search,omitempty"`

	// Payload.
	Mapping  string     `json:"mapping"` // winning policy (rebuilds the instance)
	Start    []int64    `json:"start"`
	Stats    core.Stats `json:"stats"`
	D        int64      `json:"d"`
	Cost     int64      `json:"cost"`
	ASAPCost int64      `json:"asap_cost"`
}

// recordKey reconstructs the solve key a record was stored under.
func (r *tierRecord) recordKey() solveKey {
	return solveKey{
		fp:       r.Fingerprint,
		digest:   r.ZoneDigest,
		deadline: r.Deadline,
		opt: core.Options{
			Score:       core.Score(r.Score),
			Refined:     r.Refined,
			LocalSearch: r.LocalSearch,
			K:           r.K,
			Mu:          r.Mu,
		},
		policy:    greenheft.Policy(r.Policy),
		mapSearch: r.MapSearch,
	}
}

// tierPut serializes a fresh successful response into the tier.
// Fire-and-forget: encoding is infallible for these types, and the tier
// owns its durability.
func (s *Solver) tierPut(ctx context.Context, key solveKey, resp *Response) {
	rec := tierRecord{
		Fingerprint: key.fp,
		ZoneDigest:  key.digest,
		Deadline:    key.deadline,
		Score:       int(key.opt.Score),
		Refined:     key.opt.Refined,
		LocalSearch: key.opt.LocalSearch,
		K:           key.opt.K,
		Mu:          key.opt.Mu,
		Policy:      int(key.policy),
		MapSearch:   key.mapSearch,
		Mapping:     resp.Mapping,
		Start:       resp.Schedule.Start,
		Stats:       resp.Stats,
		D:           resp.D,
		Cost:        resp.Cost,
		ASAPCost:    resp.ASAPCost,
	}
	data, err := json.Marshal(&rec)
	if err != nil {
		return
	}
	s.tier.Put(ctx, tierKey(key), data)
}

// tierGet consults the external tier for the key and, on a valid record,
// rebuilds the full response: the instance comes from the local plan memo
// under the record's winning mapping policy (re-planning is exactly what
// the memo makes cheap, and it revalidates the workflow), the schedule is
// validated against the instance and horizon, and both carbon costs are
// recomputed from it — a record is only ever trusted for its start times.
// Any failure is a plain miss (nil) and the caller falls through to a real
// solve; a record that was fetched and then refused is counted by cause in
// schedd_cache_tier_rejects_total{reason}: decode (not a record), key (a
// digest collision across processes), mapping (unknown policy name), plan
// (the workflow would not plan under that policy), shape (wrong number of
// start times), invalid (infeasible schedule), price (a version-skewed or
// buggy peer: feasible schedule, wrong cost).
func (s *Solver) tierGet(ctx context.Context, key solveKey, job *solveJob) *Response {
	data, ok := s.tier.Get(ctx, tierKey(key))
	if !ok {
		return nil
	}
	reject := func(reason string) *Response {
		obs.MeterFrom(ctx).Counter("schedd_cache_tier_rejects_total",
			"cache-tier records fetched and then refused, by reason", "reason").With(reason).Inc()
		return nil
	}
	var rec tierRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return reject("decode")
	}
	if rec.recordKey() != key {
		return reject("key")
	}
	pol, err := greenheft.ParsePolicy(rec.Mapping)
	if err != nil {
		return reject("mapping")
	}
	var pz *power.ZoneSet
	if pol.ZoneAware() {
		pz = job.zones
	}
	e, _, err := s.planFor(ctx, job.req.Workflow, job.fp, pol, pz)
	if err != nil {
		return reject("plan")
	}
	sched := &schedule.Schedule{Start: append([]int64(nil), rec.Start...)}
	if len(sched.Start) != len(e.asap.Start) {
		return reject("shape")
	}
	if err := schedule.Validate(e.inst, sched, key.deadline); err != nil {
		return reject("invalid")
	}
	cost := schedule.CarbonCost(e.inst, sched, job.zones)
	asapCost := schedule.CarbonCost(e.inst, e.asap, job.zones)
	if rec.Cost != cost || rec.Stats.Cost != cost || rec.ASAPCost != asapCost {
		return reject("price")
	}
	return &Response{
		Schedule: sched,
		Instance: e.inst,
		Stats:    rec.Stats,
		Variant:  job.variant,
		Mapping:  rec.Mapping,
		D:        e.d,
		Deadline: key.deadline,
		Cost:     cost,
		ASAPCost: asapCost,
		CacheHit: true,
	}
}

// MemoryTier is the in-process CacheTier: a mutex-guarded LRU of
// serialized records, bounded by entry count. It is the store each
// PeerTier member contributes to the ring, and the test double for the
// CacheTier seam.
type MemoryTier struct {
	mu    sync.Mutex
	store lru[string, []byte]
}

// NewMemoryTier returns an empty tier bounded to maxEntries records
// (<= 0 selects 4096).
func NewMemoryTier(maxEntries int) *MemoryTier {
	if maxEntries <= 0 {
		maxEntries = defaultEntries
	}
	t := &MemoryTier{}
	t.store.reset()
	t.store.cap = maxEntries
	return t
}

// Get returns the record stored under key. The context is ignored: the
// lookup is a local map access.
func (t *MemoryTier) Get(_ context.Context, key string) ([]byte, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.store.get(key)
}

// Put stores value under key, evicting the least-recently-used record
// when full. The value is copied; callers may reuse their buffer. The
// context is ignored.
func (t *MemoryTier) Put(_ context.Context, key string, value []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.store.put(key, append([]byte(nil), value...))
}

// Len returns the number of records currently held.
func (t *MemoryTier) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.store.len()
}

// ParseCacheTier resolves a CLI tier spec (`schedd -cache-tier`):
//
//	""                       no tier (nil)
//	"none"                   no tier (nil)
//	"peers:h1,h2[:mem=N]"    distributed PeerTier over the listed schedd
//	                         instances (every fleet member lists the same
//	                         hosts, itself included, so the hash ring is
//	                         identical everywhere); mem=N bounds the local
//	                         store this instance contributes to the ring
func ParseCacheTier(spec string) (CacheTier, error) {
	switch {
	case spec == "" || spec == "none":
		return nil, nil
	case strings.HasPrefix(spec, "peers:"):
		hosts, entries, err := parsePeersSpec(strings.TrimPrefix(spec, "peers:"))
		if err != nil {
			return nil, fmt.Errorf("cache tier %q: %w", spec, err)
		}
		tier, err := NewPeerTier(hosts, entries)
		if err != nil {
			return nil, fmt.Errorf("cache tier %q: %w", spec, err)
		}
		return tier, nil
	default:
		return nil, fmt.Errorf(`unknown cache tier %q (want "none" or "peers:<host,...>[:mem=<entries>]")`, spec)
	}
}

// parsePeersSpec splits the body of a "peers:" tier spec into its host
// list (empty entries dropped; NewPeerTier validates the rest) and the
// optional local-store bound from a trailing ":mem=N".
func parsePeersSpec(body string) (hosts []string, entries int, err error) {
	if i := strings.LastIndex(body, ":mem="); i >= 0 && !strings.Contains(body[i:], ",") {
		entries, err = strconv.Atoi(body[i+len(":mem="):])
		if err != nil || entries <= 0 {
			return nil, 0, fmt.Errorf("bad mem= suffix: want mem=<entries> with a positive count")
		}
		body = body[:i]
	}
	return strings.FieldsFunc(body, func(r rune) bool { return r == ',' }), entries, nil
}
