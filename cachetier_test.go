package cawosched_test

import (
	"context"
	"encoding/json"
	"errors"
	"strconv"
	"strings"
	"testing"

	cawosched "repro"
	"repro/internal/obs"
	"repro/internal/solve"
)

// TestMemoryTier pins the reference tier implementation: bounded LRU of
// opaque records with private copies.
func TestMemoryTier(t *testing.T) {
	ctx := context.Background()
	tier := solve.NewMemoryTier(2)
	tier.Put(ctx, "a", []byte("1"))
	tier.Put(ctx, "b", []byte("2"))
	if v, ok := tier.Get(ctx, "a"); !ok || string(v) != "1" {
		t.Fatalf("Get(a) = %q, %v", v, ok)
	}
	tier.Put(ctx, "c", []byte("3")) // evicts b (a was just touched)
	if _, ok := tier.Get(ctx, "b"); ok {
		t.Error("b survived eviction beyond the bound")
	}
	if _, ok := tier.Get(ctx, "a"); !ok {
		t.Error("recently used a was evicted")
	}
	if tier.Len() != 2 {
		t.Errorf("Len = %d, want 2", tier.Len())
	}
	// Stored values are copies: mutating the caller's buffer is invisible.
	buf := []byte("x")
	tier.Put(ctx, "a", buf)
	buf[0] = 'y'
	if v, _ := tier.Get(ctx, "a"); string(v) != "x" {
		t.Errorf("tier shares the caller's buffer: %q", v)
	}
}

// TestParseCacheTier pins the `schedd -cache-tier` spec grammar across
// every form: none/peers:..., with each malformed spec yielding a named
// error (the in-process memory tier is not a deployment option).
func TestParseCacheTier(t *testing.T) {
	cases := []struct {
		spec    string
		want    string // "" → nil tier, "peers" → *PeerTier
		wantErr string // substring of the expected error ("" → no error)
	}{
		{spec: "", want: ""},
		{spec: "none", want: ""},
		{spec: "memory", wantErr: "unknown cache tier"},
		{spec: "memory:128", wantErr: "unknown cache tier"},
		{spec: "redis://x", wantErr: "unknown cache tier"},
		{spec: "peers:a,b", want: "peers"},
		{spec: "peers:h1:8080,h2:8080:mem=256", want: "peers"},
		{spec: "peers:", wantErr: "empty peer host list"},
		{spec: "peers:,,", wantErr: "empty peer host list"},
		{spec: "peers::mem=64", wantErr: "empty peer host list"},
		{spec: "peers:a,b,a", wantErr: `duplicate peer host "a"`},
		{spec: "peers:a, ,b", wantErr: "blank peer host"},
		{spec: "peers:a,b:mem=0", wantErr: "bad mem= suffix"},
		{spec: "peers:a,b:mem=-5", wantErr: "bad mem= suffix"},
		{spec: "peers:a,b:mem=lots", wantErr: "bad mem= suffix"},
	}
	for _, tc := range cases {
		tier, err := solve.ParseCacheTier(tc.spec)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("ParseCacheTier(%q) err = %v, want it to name %q", tc.spec, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseCacheTier(%q) failed: %v", tc.spec, err)
			continue
		}
		switch tc.want {
		case "":
			if tier != nil {
				t.Errorf("ParseCacheTier(%q) = %T, want nil", tc.spec, tier)
			}
		case "peers":
			pt, ok := tier.(*solve.PeerTier)
			if !ok {
				t.Errorf("ParseCacheTier(%q) = %T, want *PeerTier", tc.spec, tier)
				continue
			}
			if got := len(pt.Stats()); got != 2 {
				t.Errorf("ParseCacheTier(%q) ring has %d peers, want 2", tc.spec, got)
			}
		}
	}
}

// TestSolverCacheTier is the fleet seam's acceptance property: two solvers
// sharing one tier share warm solves — the second solver's first solve of
// a key the first already solved is a tier hit with the identical
// schedule, no scheduler run of its own.
func TestSolverCacheTier(t *testing.T) {
	wf, err := cawosched.GenerateWorkflow(cawosched.Methylseq, 60, 17)
	if err != nil {
		t.Fatal(err)
	}
	tier := solve.NewMemoryTier(0)
	req := cawosched.Request{Workflow: wf, Variant: "pressWR-LS", Scenario: cawosched.S2, Seed: 17}

	a := solve.NewSolver(cawosched.SmallCluster(17), solve.WithCacheTier(tier))
	first, err := a.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Error("cold solve reported a hit")
	}
	if tier.Len() != 1 {
		t.Fatalf("tier holds %d records after one solve, want 1", tier.Len())
	}

	// A second solver (another schedd instance) sharing the tier.
	b := solve.NewSolver(cawosched.SmallCluster(17), solve.WithCacheTier(tier))
	warm, err := b.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit {
		t.Error("shared-tier solve missed")
	}
	if st := b.Stats(); st.TierHits != 1 || st.SolveMisses != 1 || st.SolveHits != 0 {
		t.Errorf("stats = %+v, want 1 tier hit on the 1 miss", st)
	}
	if warm.Cost != first.Cost || warm.ASAPCost != first.ASAPCost || warm.Deadline != first.Deadline || warm.Mapping != first.Mapping {
		t.Errorf("tier response differs: cost %d/%d mapping %s/%s", first.Cost, warm.Cost, first.Mapping, warm.Mapping)
	}
	for v := range first.Schedule.Start {
		if warm.Schedule.Start[v] != first.Schedule.Start[v] {
			t.Fatalf("tier schedule moved node %d", v)
		}
	}

	// The tier hit also populated b's in-process cache: the next request
	// is a plain cache hit, not another tier consult.
	again, err := b.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Error("post-tier request missed the in-process cache")
	}
	if st := b.Stats(); st.TierHits != 1 || st.SolveHits != 1 {
		t.Errorf("stats = %+v, want the second hit served in-process", st)
	}
}

// TestSolverCacheTierMapSearch round-trips a map-search response through
// the tier: the stored record names the winning policy, and the receiving
// solver rebuilds the winner's instance from its own plan memo.
func TestSolverCacheTierMapSearch(t *testing.T) {
	wf, err := cawosched.GenerateWorkflow(cawosched.Eager, 50, 23)
	if err != nil {
		t.Fatal(err)
	}
	tier := solve.NewMemoryTier(0)
	req := cawosched.Request{Workflow: wf, Variant: "press", Scenario: cawosched.S3, Seed: 23, MapSearch: true}

	a := solve.NewSolver(cawosched.SmallCluster(23), solve.WithCacheTier(tier))
	first, err := a.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	b := solve.NewSolver(cawosched.SmallCluster(23), solve.WithCacheTier(tier))
	warm, err := b.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit || warm.Mapping != first.Mapping || warm.Cost != first.Cost {
		t.Errorf("tier map-search round trip: hit=%v mapping %s/%s cost %d/%d",
			warm.CacheHit, first.Mapping, warm.Mapping, first.Cost, warm.Cost)
	}
	for v := range first.Schedule.Start {
		if warm.Schedule.Start[v] != first.Schedule.Start[v] {
			t.Fatalf("tier map-search schedule moved node %d", v)
		}
	}
}

// keyedTier is a MemoryTier that records the key of every Put.
type keyedTier struct {
	*solve.MemoryTier
	keys []string
}

func (t *keyedTier) Put(ctx context.Context, key string, value []byte) {
	t.keys = append(t.keys, key)
	t.MemoryTier.Put(ctx, key, value)
}

// TestSolverCacheTierGarbage: corrupt or mismatched tier records are
// treated as misses, never served.
func TestSolverCacheTierGarbage(t *testing.T) {
	wf, err := cawosched.GenerateWorkflow(cawosched.Bacass, 40, 29)
	if err != nil {
		t.Fatal(err)
	}
	req := cawosched.Request{Workflow: wf, Variant: "press", Scenario: cawosched.S1, Seed: 29}
	var first *cawosched.Response

	// Every way a stored record can be wrong is a miss re-solved to the
	// honest answer — a record is trusted for nothing but its start times,
	// and those only once validated — and is counted under its own reason.
	// (The seventh reason, "plan", needs a workflow that plans under the
	// request's policy and not under the record's; no tampering makes one.)
	set := func(field, value string) func(map[string]json.RawMessage) {
		return func(rec map[string]json.RawMessage) { rec[field] = json.RawMessage(value) }
	}
	for _, tc := range []struct {
		reason string
		tamper func(rec map[string]json.RawMessage) // nil: not JSON at all
	}{
		{"decode", nil},
		{"key", set("deadline", "1")},
		{"mapping", set("mapping", `"bogus"`)},
		{"shape", set("start", "[0]")},
		{"invalid", func(rec map[string]json.RawMessage) {
			var start []int64
			if err := json.Unmarshal(rec["start"], &start); err != nil {
				t.Fatal(err)
			}
			for i := range start {
				start[i] = 0 // every task at once: precedence and processor order both break
			}
			rec["start"], _ = json.Marshal(start)
		}},
		{"price", func(rec map[string]json.RawMessage) {
			rec["cost"] = json.RawMessage(strconv.FormatInt(first.Cost+1, 10))
		}},
	} {
		tier := &keyedTier{MemoryTier: solve.NewMemoryTier(0)}
		honest := solve.NewSolver(cawosched.SmallCluster(29), solve.WithCacheTier(tier))
		if first, err = honest.Solve(context.Background(), req); err != nil {
			t.Fatal(err)
		}
		if tier.Len() != 1 {
			t.Fatalf("tier holds %d records, want 1", tier.Len())
		}
		for _, key := range tier.keys {
			data := []byte("{not json")
			if tc.tamper != nil {
				data, _ = tier.Get(context.Background(), key)
				var rec map[string]json.RawMessage // raw: the 64-bit key fields must survive
				if err := json.Unmarshal(data, &rec); err != nil {
					t.Fatal(err)
				}
				tc.tamper(rec)
				if data, err = json.Marshal(rec); err != nil {
					t.Fatal(err)
				}
			}
			tier.Put(context.Background(), key, data)
		}
		reg := obs.NewRegistry()
		fresh := solve.NewSolver(cawosched.SmallCluster(29), solve.WithCacheTier(tier))
		res, err := fresh.Solve(obs.WithMeter(context.Background(), reg), req)
		if err != nil {
			t.Fatalf("%s: %v", tc.reason, err)
		}
		if st := fresh.Stats(); res.CacheHit || st.TierHits != 0 || res.Cost != first.Cost {
			t.Errorf("%s: hit=%v tier hits=%d cost=%d, want a miss re-solved to cost %d",
				tc.reason, res.CacheHit, st.TierHits, res.Cost, first.Cost)
		}
		want := `schedd_cache_tier_rejects_total{reason="` + tc.reason + `"} 1`
		if text := reg.RenderText(); !strings.Contains(text, want) || strings.Count(text, "schedd_cache_tier_rejects_total{") != 1 {
			t.Errorf("%s: metrics lack %q or count another reason:\n%s", tc.reason, want, text)
		}
	}

	// Errors are never written to the tier.
	inst, err := cawosched.PlanHEFT(wf, cawosched.SmallCluster(29))
	if err != nil {
		t.Fatal(err)
	}
	D := cawosched.ASAPMakespan(inst)
	empty := solve.NewMemoryTier(0)
	c := solve.NewSolver(cawosched.SmallCluster(29), solve.WithCacheTier(empty))
	bad := cawosched.Request{Workflow: wf, Variant: "press", Zones: cawosched.SingleZone(cawosched.ConstantProfile(D/2, 1))}
	if _, err := c.Solve(context.Background(), bad); !errors.Is(err, cawosched.ErrInfeasibleDeadline) {
		t.Fatalf("err = %v, want ErrInfeasibleDeadline", err)
	}
	if empty.Len() != 0 {
		t.Errorf("failed solve left %d tier records", empty.Len())
	}
}
