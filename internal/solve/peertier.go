package solve

import (
	"bytes"
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
//   - Circuit breaker: three consecutive failures open a per-peer
//     breaker for two seconds; while open, lookups and puts for that
//     peer short-circuit to misses/drops without touching the network,
//     so a dead peer costs nothing after the first few timeouts.
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
	local  *MemoryTier
	client *http.Client
	putSem chan struct{}
	peers  []*peerState // in listed order
	ring   []ringPoint  // sorted by hash; owner = first point clockwise of the key

	// timeout bounds each peer request. It is the tier's worst-case
	// latency cost: a dead un-broken peer delays a lookup by at most this
	// before the solver falls through to a real solve.
	timeout time.Duration
	// breakerFailures consecutive failures open a peer's breaker for
	// breakerCooldown.
	breakerFailures int
	breakerCooldown time.Duration
	// maxRecordBytes caps a fetched record body (the server's
	// request-body bound).
	maxRecordBytes int64
}

// ringReplicas is the number of virtual ring points per host; more
// points smooth the key distribution across peers.
const ringReplicas = 64

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

// NewPeerTier builds a tier over a fixed fleet: hosts ("host:port" or a
// full http(s) URL) must be non-empty, non-blank and distinct, and every
// member must be given the same list (order-insensitive — ring placement
// hashes the host spelling) for the key→owner mapping to agree across
// instances. localEntries bounds the store this instance contributes to
// the ring (<= 0 selects 4096). ParseCacheTier builds
// the tier from a "peers:h1,h2[:mem=N]" spec.
func NewPeerTier(hosts []string, localEntries int) (*PeerTier, error) {
	if len(hosts) == 0 {
		return nil, errors.New("cawosched: peer tier: empty peer host list")
	}
	seen := make(map[string]bool, len(hosts))
	peers := make([]*peerState, 0, len(hosts))
	ring := make([]ringPoint, 0, len(hosts)*ringReplicas)
	for _, host := range hosts {
		host = strings.TrimSpace(host)
		if host == "" {
			return nil, errors.New("cawosched: peer tier: blank peer host")
		}
		if seen[host] {
			return nil, fmt.Errorf("cawosched: peer tier: duplicate peer host %q", host)
		}
		seen[host] = true
		base := host
		if !strings.Contains(base, "://") {
			base = "http://" + base
		}
		p := &peerState{host: host, base: strings.TrimRight(base, "/")}
		peers = append(peers, p)
		for r := 0; r < ringReplicas; r++ {
			h := dag.NewHash()
			h.Str(host + "#" + strconv.Itoa(r))
			ring = append(ring, ringPoint{hash: h.Sum64(), peer: p})
		}
	}
	sort.Slice(ring, func(i, j int) bool { return ring[i].hash < ring[j].hash })
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = 16
	return &PeerTier{
		local:           NewMemoryTier(localEntries),
		client:          &http.Client{Transport: tr},
		putSem:          make(chan struct{}, maxAsyncPuts),
		peers:           peers,
		ring:            ring,
		timeout:         150 * time.Millisecond,
		breakerFailures: 3,
		breakerCooldown: 2 * time.Second,
		maxRecordBytes:  8 << 20,
	}, nil
}

// Local returns the store this instance contributes to the ring.
// internal/server's cache-exchange handlers read and write it.
func (t *PeerTier) Local() *MemoryTier { return t.local }

// owner returns the ring member owning key: the first virtual node
// clockwise of the key's hash.
func (t *PeerTier) owner(key string) *peerState {
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
// open breaker, canceled context, timeout, connection error, non-200
// status, a record over maxRecordBytes — is a plain miss; the only
// error-free path to a hit is a 200 with a readable body within the cap.
// (The body is still untrusted: the solver validates it structurally
// before serving.)
func (t *PeerTier) Get(ctx context.Context, key string) ([]byte, bool) {
	p := t.owner(key)
	if ctx.Err() != nil {
		return nil, false
	}
	now := time.Now()
	if p.breakerOpen(now) {
		return nil, false
	}
	p.gets.Add(1)
	rctx, cancel := context.WithTimeout(ctx, t.timeout)
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
		data, err := io.ReadAll(io.LimitReader(resp.Body, t.maxRecordBytes+1))
		if err != nil {
			t.requestFailed(p, rctx, err)
			return nil, false
		}
		if int64(len(data)) > t.maxRecordBytes {
			p.errors.Add(1)
			p.fail(t.breakerFailures, t.breakerCooldown, time.Now())
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
		p.fail(t.breakerFailures, t.breakerCooldown, time.Now())
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
	p.fail(t.breakerFailures, t.breakerCooldown, time.Now())
}

// Put ships the record to the key's ring owner from a background worker,
// bounded by the async-put slots: the solve path never waits on a peer.
// The record is dropped — counted, never queued unboundedly — when the
// owner's breaker is open or all slots are busy. The caller's context
// only gates the decision to ship (a canceled request stops spending
// work); the shipment itself runs on a detached context so a response
// already computed still reaches the ring.
func (t *PeerTier) Put(ctx context.Context, key string, value []byte) {
	p := t.owner(key)
	if ctx.Err() != nil {
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
		rctx, cancel := context.WithTimeout(context.Background(), t.timeout)
		defer cancel()
		req, err := http.NewRequestWithContext(rctx, http.MethodPut, p.base+wire.CachePathPrefix+key, bytes.NewReader(data))
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
			p.fail(t.breakerFailures, t.breakerCooldown, time.Now())
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
	now := time.Now()
	out := make([]PeerStats, len(t.peers))
	for i, p := range t.peers {
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
