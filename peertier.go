package cawosched

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dag"
	"repro/internal/wire"
)

// PeerTier is the distributed CacheTier: a consistent-hash fan-out over
// a static list of schedd instances that turns the solve-cache hit rate
// into a fleet-wide property. Every record key is owned by exactly one
// ring member (the same one on every instance, because every instance
// ranks the same host list), Get fetches the record from the owner over
// GET /internal/v1/cache/<key>, and Put ships fresh records to the owner
// asynchronously over PUT. Each instance also carries a local MemoryTier
// — the store it contributes to the ring, served by internal/server's
// cache-exchange handlers.
//
// The tier is built for strict robustness, not durability — it is a
// cache in front of a solver that can always recompute:
//
//   - Timeout-to-miss: every peer request is bounded by the caller's
//     context AND a per-peer timeout. A slow, dead, or unreachable owner
//     degrades the lookup to a local miss; the solver falls through to a
//     real solve. Get never returns an error.
//   - Circuit breaker: BreakerFailures consecutive failures open a
//     per-peer breaker for BreakerCooldown; while open, lookups and puts
//     for that peer short-circuit to misses/drops without touching the
//     network, so a dead peer costs nothing after the first few timeouts.
//   - Fire-and-forget Put: records are shipped from a bounded set of
//     background workers on detached contexts; when all slots are busy
//     the record is dropped (only costing a future re-solve). A slow
//     peer can never stall the solve path of a leader.
//
// Trust follows the CacheTier contract: fetched bytes are opaque until
// the solver's re-validation (key-field equality, schedule.Validate, and
// both carbon costs recomputed), so a corrupt or version-skewed peer
// response is a miss, never a wrong answer.
type PeerTier struct {
	opts   PeerTierOptions
	local  *MemoryTier
	client *http.Client
	putSem chan struct{}

	mu    sync.RWMutex
	peers []*peerState
	ring  []ringPoint // sorted by hash; owner = first point clockwise of the key
}

// PeerTierOptions tunes a PeerTier; zero values select the defaults.
type PeerTierOptions struct {
	// Timeout bounds each peer request (default 150ms). It is the tier's
	// worst-case latency cost: a dead un-broken peer delays a lookup by
	// at most this before the solver falls through to a real solve.
	Timeout time.Duration
	// BreakerFailures is how many consecutive failures open a peer's
	// circuit breaker (default 3).
	BreakerFailures int
	// BreakerCooldown is how long an open breaker skips its peer before
	// the next probe (default 2s).
	BreakerCooldown time.Duration
	// LocalEntries bounds the local store this instance contributes to
	// the ring (<= 0 selects DefaultMemoryTierEntries).
	LocalEntries int
	// Replicas is the number of virtual ring points per host (default
	// 64); more points smooth the key distribution across peers.
	Replicas int
	// Client overrides the HTTP client (tests); nil builds a dedicated
	// one with pooled connections per peer.
	Client *http.Client
	// MaxRecordBytes caps a fetched record body (default 8 MiB, matching
	// the server's request-body bound).
	MaxRecordBytes int64
}

func (o PeerTierOptions) withDefaults() PeerTierOptions {
	if o.Timeout <= 0 {
		o.Timeout = 150 * time.Millisecond
	}
	if o.BreakerFailures <= 0 {
		o.BreakerFailures = 3
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 2 * time.Second
	}
	if o.Replicas <= 0 {
		o.Replicas = 64
	}
	if o.MaxRecordBytes <= 0 {
		o.MaxRecordBytes = 8 << 20
	}
	return o
}

// maxAsyncPuts bounds the in-flight fire-and-forget record shipments;
// further puts are dropped (and counted) rather than queued.
const maxAsyncPuts = 128

// peerState is one ring member: its base URL, counters, and breaker.
type peerState struct {
	host string // as listed in the spec (the metrics label)
	base string // scheme-qualified base URL

	gets, hits, errors, timeouts atomic.Int64
	puts, drops                  atomic.Int64

	bmu       sync.Mutex
	fails     int       // consecutive failures since the last success
	openUntil time.Time // breaker open until (zero = closed)
}

// ringPoint is one virtual node on the hash ring.
type ringPoint struct {
	hash uint64
	peer *peerState
}

// PeerStats is one peer's snapshot in PeerTier.Stats.
type PeerStats struct {
	Peer string // host as listed in the spec
	// Gets/Hits/Errors/Timeouts count lookup requests actually sent to
	// the peer and their outcomes (a 404 miss is a successful get).
	Gets, Hits, Errors, Timeouts int64
	// Puts counts records shipped; Drops counts puts discarded because
	// the breaker was open or all async slots were busy.
	Puts, Drops int64
	// BreakerOpen is the breaker state at snapshot time.
	BreakerOpen bool
}

// NewPeerTier builds a tier over the given hosts ("host:port" or a full
// http(s) URL). An empty host list is allowed at construction — the
// fleet harness starts its servers first and installs the ring with
// SetPeers — but every Get misses and every Put drops until peers are
// set. ParseCacheTier builds the tier directly from a
// "peers:h1,h2[:mem=N]" spec.
func NewPeerTier(hosts []string, opts PeerTierOptions) (*PeerTier, error) {
	opts = opts.withDefaults()
	client := opts.Client
	if client == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = 16
		client = &http.Client{Transport: tr}
	}
	t := &PeerTier{
		opts:   opts,
		local:  NewMemoryTier(opts.LocalEntries),
		client: client,
		putSem: make(chan struct{}, maxAsyncPuts),
	}
	if err := t.SetPeers(hosts); err != nil {
		return nil, err
	}
	return t, nil
}

// SetPeers replaces the ring's host list. Every fleet member must be
// given the same list (order-insensitive — ring placement hashes the
// host spelling) for the key→owner mapping to agree across instances.
// Counters and breaker state of hosts present in both lists carry over.
func (t *PeerTier) SetPeers(hosts []string) error {
	seen := make(map[string]bool, len(hosts))
	peers := make([]*peerState, 0, len(hosts))
	t.mu.RLock()
	old := make(map[string]*peerState, len(t.peers))
	for _, p := range t.peers {
		old[p.host] = p
	}
	t.mu.RUnlock()
	for _, host := range hosts {
		host = strings.TrimSpace(host)
		if host == "" {
			return fmt.Errorf("cawosched: peer tier: empty peer host")
		}
		if seen[host] {
			return fmt.Errorf("cawosched: peer tier: duplicate peer host %q", host)
		}
		seen[host] = true
		if p := old[host]; p != nil {
			peers = append(peers, p)
			continue
		}
		base := host
		if !strings.Contains(base, "://") {
			base = "http://" + base
		}
		peers = append(peers, &peerState{host: host, base: strings.TrimRight(base, "/")})
	}
	ring := make([]ringPoint, 0, len(peers)*t.opts.Replicas)
	for _, p := range peers {
		for r := 0; r < t.opts.Replicas; r++ {
			h := dag.NewHash()
			h.Str(p.host + "#" + strconv.Itoa(r))
			ring = append(ring, ringPoint{hash: h.Sum64(), peer: p})
		}
	}
	sort.Slice(ring, func(i, j int) bool { return ring[i].hash < ring[j].hash })
	t.mu.Lock()
	t.peers, t.ring = peers, ring
	t.mu.Unlock()
	return nil
}

// Peers returns the current host list, in listed order.
func (t *PeerTier) Peers() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	hosts := make([]string, len(t.peers))
	for i, p := range t.peers {
		hosts[i] = p.host
	}
	return hosts
}

// Local returns the store this instance contributes to the ring.
// internal/server's cache-exchange handlers read and write it.
func (t *PeerTier) Local() *MemoryTier { return t.local }

// owner returns the ring member owning key: the first virtual node
// clockwise of the key's hash. nil when the ring is empty.
func (t *PeerTier) owner(key string) *peerState {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if len(t.ring) == 0 {
		return nil
	}
	h := dag.NewHash()
	h.Str(key)
	sum := h.Sum64()
	i := sort.Search(len(t.ring), func(i int) bool { return t.ring[i].hash >= sum })
	if i == len(t.ring) {
		i = 0 // wrap around
	}
	return t.ring[i].peer
}

// breakerOpen reports whether the peer is currently skipped.
func (p *peerState) breakerOpen(now time.Time) bool {
	p.bmu.Lock()
	defer p.bmu.Unlock()
	return now.Before(p.openUntil)
}

// fail records one failed request; after limit consecutive failures the
// breaker opens for cooldown.
func (p *peerState) fail(limit int, cooldown time.Duration, now time.Time) {
	p.bmu.Lock()
	defer p.bmu.Unlock()
	p.fails++
	if p.fails >= limit {
		p.openUntil = now.Add(cooldown)
		p.fails = 0
	}
}

// succeed closes the breaker and resets the failure run.
func (p *peerState) succeed() {
	p.bmu.Lock()
	defer p.bmu.Unlock()
	p.fails = 0
	p.openUntil = time.Time{}
}

// Get fetches the record from the key's ring owner. Every failure mode —
// empty ring, open breaker, canceled context, timeout, connection error,
// non-200 status, a record over MaxRecordBytes — is a plain miss; the only
// error-free path to a hit is a 200 with a readable body within the cap.
// (The body is still untrusted: the solver validates it structurally
// before serving.)
func (t *PeerTier) Get(ctx context.Context, key string) ([]byte, bool) {
	p := t.owner(key)
	if p == nil || ctx.Err() != nil {
		return nil, false
	}
	now := time.Now()
	if p.breakerOpen(now) {
		return nil, false
	}
	p.gets.Add(1)
	rctx, cancel := context.WithTimeout(ctx, t.opts.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, p.base+wire.CachePathPrefix+key, nil)
	if err != nil {
		p.errors.Add(1)
		return nil, false
	}
	resp, err := t.client.Do(req)
	if err != nil {
		t.requestFailed(p, rctx, err)
		return nil, false
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		// One byte past the cap tells an oversized record from one that
		// fills it exactly.
		data, err := io.ReadAll(io.LimitReader(resp.Body, t.opts.MaxRecordBytes+1))
		if err != nil {
			t.requestFailed(p, rctx, err)
			return nil, false
		}
		if int64(len(data)) > t.opts.MaxRecordBytes {
			p.errors.Add(1)
			p.fail(t.opts.BreakerFailures, t.opts.BreakerCooldown, time.Now())
			return nil, false
		}
		p.hits.Add(1)
		p.succeed()
		return data, true
	case http.StatusNotFound:
		// A miss from a live peer: the ring just has no record yet.
		p.succeed()
		return nil, false
	default:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 512))
		p.errors.Add(1)
		p.fail(t.opts.BreakerFailures, t.opts.BreakerCooldown, time.Now())
		return nil, false
	}
}

// requestFailed classifies one failed peer request (timeout vs transport
// error) and advances the breaker.
func (t *PeerTier) requestFailed(p *peerState, rctx context.Context, err error) {
	if rctx.Err() != nil || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		p.timeouts.Add(1)
	} else {
		p.errors.Add(1)
	}
	p.fail(t.opts.BreakerFailures, t.opts.BreakerCooldown, time.Now())
}

// Put ships the record to the key's ring owner from a background worker,
// bounded by the async-put slots: the solve path never waits on a peer.
// The record is dropped — counted, never queued unboundedly — when the
// ring is empty, the owner's breaker is open, or all slots are busy. The
// caller's context only gates the decision to ship (a canceled request
// stops spending work); the shipment itself runs on a detached context
// so a response already computed still reaches the ring.
func (t *PeerTier) Put(ctx context.Context, key string, value []byte) {
	p := t.owner(key)
	if p == nil || ctx.Err() != nil {
		return
	}
	if p.breakerOpen(time.Now()) {
		p.drops.Add(1)
		return
	}
	select {
	case t.putSem <- struct{}{}:
	default:
		p.drops.Add(1)
		return
	}
	data := append([]byte(nil), value...)
	go func() {
		defer func() { <-t.putSem }()
		rctx, cancel := context.WithTimeout(context.Background(), t.opts.Timeout)
		defer cancel()
		req, err := http.NewRequestWithContext(rctx, http.MethodPut, p.base+wire.CachePathPrefix+key, strings.NewReader(string(data)))
		if err != nil {
			p.errors.Add(1)
			return
		}
		req.Header.Set("Content-Type", wire.CacheContentType)
		resp, err := t.client.Do(req)
		if err != nil {
			t.requestFailed(p, rctx, err)
			return
		}
		io.Copy(io.Discard, io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			p.errors.Add(1)
			p.fail(t.opts.BreakerFailures, t.opts.BreakerCooldown, time.Now())
			return
		}
		p.puts.Add(1)
		p.succeed()
	}()
}

// Stats snapshots every peer's counters and breaker state, in listed
// order. internal/server mirrors it onto /metrics at scrape time as
// schedd_cache_tier_{gets,hits,errors,timeouts}_total{peer} and
// schedd_cache_tier_breaker_open{peer}.
func (t *PeerTier) Stats() []PeerStats {
	t.mu.RLock()
	peers := t.peers
	t.mu.RUnlock()
	now := time.Now()
	out := make([]PeerStats, len(peers))
	for i, p := range peers {
		out[i] = PeerStats{
			Peer:        p.host,
			Gets:        p.gets.Load(),
			Hits:        p.hits.Load(),
			Errors:      p.errors.Load(),
			Timeouts:    p.timeouts.Load(),
			Puts:        p.puts.Load(),
			Drops:       p.drops.Load(),
			BreakerOpen: p.breakerOpen(now),
		}
	}
	return out
}
