package solve

// PeerTier unit tests: ring placement, the timeout-to-miss contract, the
// circuit breaker, and fire-and-forget puts — against httptest peers
// speaking the wire.CachePathPrefix protocol. The solver-level and
// daemon-level fleet behavior is pinned in internal/server and
// cmd/schedd; this file owns the tier mechanics.

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
)

// testPeer is one fake fleet member: an httptest server front-ending a
// MemoryTier with the cache-exchange protocol.
type testPeer struct {
	srv   *httptest.Server
	store *MemoryTier
}

func newTestPeer(t *testing.T) *testPeer {
	t.Helper()
	p := &testPeer{store: NewMemoryTier(0)}
	p.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		key := r.URL.Path[len(wire.CachePathPrefix):]
		if !wire.ValidCacheKey(key) {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		switch r.Method {
		case http.MethodGet:
			if data, ok := p.store.Get(r.Context(), key); ok {
				w.Write(data)
				return
			}
			w.WriteHeader(http.StatusNotFound)
		case http.MethodPut:
			body, _ := io.ReadAll(r.Body)
			p.store.Put(r.Context(), key, body)
			w.WriteHeader(http.StatusNoContent)
		}
	}))
	t.Cleanup(p.srv.Close)
	return p
}

func (p *testPeer) host() string { return p.srv.Listener.Addr().String() }

// TestPeerTierRingPlacement: every instance given the same host list —
// in any order — agrees on each key's owner, virtual nodes spread
// ownership across all peers, a changed host list re-ranks only what it
// must (dropping a host moves only the keys that host owned), and a bad
// host list is refused.
func TestPeerTierRingPlacement(t *testing.T) {
	hosts := []string{"h1:8080", "h2:8080", "h3:8080"}
	a, err := NewPeerTier(hosts, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPeerTier([]string{"h3:8080", "h1:8080", "h2:8080"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	shrunk, err := NewPeerTier(hosts[:2], 0)
	if err != nil {
		t.Fatal(err)
	}
	owned := map[string]int{}
	for i := 0; i < 1000; i++ {
		key := strconv.FormatUint(uint64(i)*2654435761, 16)
		oa, ob := a.owner(key), b.owner(key)
		if oa.host != ob.host {
			t.Fatalf("key %s: owner %s vs %s across identical rings", key, oa.host, ob.host)
		}
		owned[oa.host]++
		if os2 := shrunk.owner(key); oa.host != "h3:8080" && os2.host != oa.host {
			t.Fatalf("key %s moved from %s to %s when only h3 left the ring", key, oa.host, os2.host)
		}
	}
	for _, h := range hosts {
		if owned[h] < 100 {
			t.Errorf("host %s owns only %d/1000 keys; ring is badly skewed: %v", h, owned[h], owned)
		}
	}

	// The constructor is the one place a host list is validated.
	for _, bad := range [][]string{nil, {"h1:8080", " "}, {"h1:8080", "h1:8080"}, {"h1:8080", " h1:8080"}} {
		if _, err := NewPeerTier(bad, 0); err == nil {
			t.Errorf("NewPeerTier(%q) accepted an empty, blank or duplicate host list", bad)
		}
	}
}

// TestPeerTierExchange: a Put lands on the key's owner (asynchronously)
// and a Get from any instance fetches it back.
func TestPeerTierExchange(t *testing.T) {
	p0, p1 := newTestPeer(t), newTestPeer(t)
	hosts := []string{p0.host(), p1.host()}
	tier, err := NewPeerTier(hosts, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// One key per owner, so both directions of the exchange are exercised.
	keys := map[string]string{}
	for i := 0; len(keys) < 2; i++ {
		key := strconv.FormatUint(uint64(i)*2654435761+1, 16)
		host := tier.owner(key).host
		if _, ok := keys[host]; !ok {
			keys[host] = key
		}
	}
	for host, key := range keys {
		tier.Put(ctx, key, []byte("record-"+key))
		store := p0.store
		if host == p1.host() {
			store = p1.store
		}
		deadline := time.Now().Add(5 * time.Second)
		for {
			if _, ok := store.Get(ctx, key); ok {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("put for key %s never reached owner %s", key, host)
			}
			time.Sleep(2 * time.Millisecond)
		}
		if data, ok := tier.Get(ctx, key); !ok || string(data) != "record-"+key {
			t.Fatalf("Get(%s) = %q, %v after put landed", key, data, ok)
		}
	}
	var puts, hits int64
	for _, ps := range tier.Stats() {
		puts += ps.Puts
		hits += ps.Hits
		if ps.Errors != 0 || ps.Timeouts != 0 {
			t.Errorf("peer %s: errors=%d timeouts=%d, want none", ps.Peer, ps.Errors, ps.Timeouts)
		}
	}
	if puts != 2 || hits != 2 {
		t.Errorf("fleet counters: puts=%d hits=%d, want 2/2", puts, hits)
	}

	// A miss from a live peer is clean: no error, no breaker movement.
	if _, ok := tier.Get(ctx, "feedface"); ok {
		t.Error("Get of an unstored key hit")
	}
	// A canceled context is a miss before any network I/O.
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, ok := tier.Get(canceled, keys[p0.host()]); ok {
		t.Error("Get with canceled context returned a hit")
	}
}

// TestPeerTierTimeoutToMiss is the acceptance pin for the robustness
// contract: a peer slower than the per-peer timeout degrades the lookup
// to a miss within roughly the timeout — no error, no unbounded wait.
func TestPeerTierTimeoutToMiss(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-block:
		case <-r.Context().Done():
		}
	}))
	defer slow.Close()
	tier, err := NewPeerTier([]string{slow.Listener.Addr().String()}, 0)
	if err != nil {
		t.Fatal(err)
	}
	tier.timeout, tier.breakerFailures = 30*time.Millisecond, 100
	start := time.Now()
	if _, ok := tier.Get(context.Background(), "abc123"); ok {
		t.Error("slow peer produced a hit")
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Errorf("lookup took %v, want ~the 30ms peer timeout", d)
	}
	if ps := tier.Stats()[0]; ps.Timeouts != 1 || ps.Gets != 1 {
		t.Errorf("stats = %+v, want 1 timeout on 1 get", ps)
	}
}

// TestPeerTierOversizedRecord: a record one byte over maxRecordBytes is
// an error and a miss, never a truncated hit; one that fills the cap
// exactly is a hit.
func TestPeerTierOversizedRecord(t *testing.T) {
	const limit = 1 << 10
	var size atomic.Int64
	size.Store(limit + 1)
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(make([]byte, size.Load()))
	}))
	defer peer.Close()
	tier, err := NewPeerTier([]string{peer.Listener.Addr().String()}, 0)
	if err != nil {
		t.Fatal(err)
	}
	tier.maxRecordBytes = limit
	if data, ok := tier.Get(context.Background(), "abc123"); ok {
		t.Errorf("oversized record served as a %d-byte hit", len(data))
	}
	if ps := tier.Stats()[0]; ps.Gets != 1 || ps.Hits != 0 || ps.Errors != 1 {
		t.Errorf("stats = %+v, want 1 get, 0 hits, 1 error", ps)
	}
	size.Store(limit)
	if data, ok := tier.Get(context.Background(), "abc123"); !ok || len(data) != limit {
		t.Errorf("record at the cap: hit %v with %d bytes, want a %d-byte hit", ok, len(data), limit)
	}
}

// TestPeerTierBreaker: consecutive failures open the breaker — lookups
// then skip the dead peer without network I/O — and the cooldown expiry
// lets a probe through again.
func TestPeerTierBreaker(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	host := dead.Listener.Addr().String()
	dead.Close() // connection refused from here on
	tier, err := NewPeerTier([]string{host}, 0)
	if err != nil {
		t.Fatal(err)
	}
	tier.timeout, tier.breakerFailures, tier.breakerCooldown = 50*time.Millisecond, 2, 150*time.Millisecond
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, ok := tier.Get(ctx, "abc"); ok {
			t.Fatal("dead peer produced a hit")
		}
	}
	ps := tier.Stats()[0]
	if !ps.BreakerOpen || ps.Gets != 2 {
		t.Fatalf("after 2 failures: %+v, want open breaker on 2 gets", ps)
	}
	// Open breaker: lookups short-circuit (the request counter freezes)
	// and puts are dropped, not shipped.
	if _, ok := tier.Get(ctx, "abc"); ok {
		t.Error("open-breaker lookup hit")
	}
	tier.Put(ctx, "abc", []byte("x"))
	ps = tier.Stats()[0]
	if ps.Gets != 2 || ps.Drops != 1 {
		t.Errorf("open-breaker stats = %+v, want gets frozen at 2 and 1 dropped put", ps)
	}
	// Cooldown expiry: the next lookup probes the peer again.
	time.Sleep(200 * time.Millisecond)
	tier.Get(ctx, "abc")
	if ps := tier.Stats()[0]; ps.Gets != 3 {
		t.Errorf("post-cooldown stats = %+v, want a 3rd get", ps)
	}
}

// TestPeerTierDeadPeerDegradation is the fleet acceptance property: with
// one peer killed mid-run, every lookup — whoever owns the key — keeps
// answering (hit or miss) with no errors surfaced and no latency beyond
// the per-peer timeout, while keys owned by the surviving peer still
// serve.
func TestPeerTierDeadPeerDegradation(t *testing.T) {
	p0, p1 := newTestPeer(t), newTestPeer(t)
	tier, err := NewPeerTier([]string{p0.host(), p1.host()}, 0)
	if err != nil {
		t.Fatal(err)
	}
	tier.timeout = 100 * time.Millisecond
	ctx := context.Background()
	var deadKey, liveKey string
	for i := 0; deadKey == "" || liveKey == ""; i++ {
		key := strconv.FormatUint(uint64(i)*2654435761+7, 16)
		if tier.owner(key).host == p1.host() {
			deadKey = key
		} else {
			liveKey = key
		}
	}
	p0.store.Put(ctx, liveKey, []byte("live"))
	p1.srv.Close() // the peer dies mid-run

	for i := 0; i < 10; i++ {
		start := time.Now()
		if _, ok := tier.Get(ctx, deadKey); ok {
			t.Fatal("dead peer produced a hit")
		}
		if d := time.Since(start); d > 400*time.Millisecond {
			t.Fatalf("lookup %d against the dead peer took %v, want under the timeout", i, d)
		}
	}
	if data, ok := tier.Get(ctx, liveKey); !ok || string(data) != "live" {
		t.Errorf("surviving peer's key lost: %q, %v", data, ok)
	}
	for _, ps := range tier.Stats() {
		if ps.Peer == p1.host() {
			if ps.Errors+ps.Timeouts == 0 {
				t.Errorf("dead peer %s recorded no failures: %+v", ps.Peer, ps)
			}
			if !ps.BreakerOpen {
				t.Errorf("dead peer %s breaker still closed after 10 failures", ps.Peer)
			}
		} else if ps.Errors+ps.Timeouts != 0 {
			t.Errorf("live peer %s recorded failures: %+v", ps.Peer, ps)
		}
	}
}
