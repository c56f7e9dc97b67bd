package solve

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/greenheft"
	"repro/internal/power"
)

// TestKeyDigestsPinned pins the 64-bit key digests across commits. The
// golden response table proves bodies, not keys — yet peer-tier records
// are addressed by solveKey.sum() across processes and the ring places
// them by the same hash, so a change to dag.Hash that moves one bit
// silently splits a mixed-version fleet's cache. The literals were
// generated at the commit before dag.Hash dropped hash.Hash64; only a
// change that means to re-key every cache may touch them.
func TestKeyDigestsPinned(t *testing.T) {
	wf := dag.New(4)
	for v, w := range []int64{40, 80, 20, 65} {
		wf.SetWeight(v, w)
	}
	wf.SetName(1, "align")
	wf.SetName(3, "méthyl") // multi-byte: Str hashes bytes, not runes
	wf.AddEdge(0, 1, 5)
	wf.AddEdge(0, 2, 7)
	wf.AddEdge(1, 3, 0)
	wf.AddEdge(2, 3, 11)

	profile := func(budgets ...int64) *power.Profile {
		p := &power.Profile{}
		for i, b := range budgets {
			p.Intervals = append(p.Intervals, power.Interval{Start: int64(i) * 50, End: int64(i+1) * 50, Budget: b})
		}
		return p
	}
	prof := profile(12, 0, 31, 7)
	zones := &power.ZoneSet{Zones: []power.Zone{
		{Name: "eu-north", Profile: prof},
		{Name: "us-east", Profile: profile(3, 3, 90, 1)},
		{Name: "ap-south", Profile: profile(0, 44, 0, 18)},
	}}

	opt, err := core.LookupVariant("pressWR-LS")
	if err != nil {
		t.Fatal(err)
	}
	key := solveKey{
		fp:        wf.Fingerprint(),
		digest:    zones.Digest(),
		deadline:  zones.T(),
		opt:       normalizeOptions(opt),
		policy:    greenheft.ZoneGreen,
		mapSearch: false,
	}

	tier, err := NewPeerTier([]string{"h1:8080", "h2:8080", "h3:8080"}, 0)
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"DAG.Fingerprint", wf.Fingerprint(), 0xa2eebe9e1a5e6ee8},
		{"Profile.Digest", prof.Digest(), 0x792db9390e7c9efd},
		{"ZoneSet.Digest", zones.Digest(), 0x3e63f96d6e36a45c},
		{"SingleZone digests like its profile", power.SingleZone(prof).Digest(), 0x792db9390e7c9efd},
		{"solveKey.sum", key.sum(), 0x55bcb13892f02901},
	} {
		if c.got != c.want {
			t.Errorf("%s = %#016x, pinned %#016x", c.name, c.got, c.want)
		}
	}
	if got, want := tierKey(key), "55bcb13892f02901"; got != want {
		t.Errorf("tierKey = %q, pinned %q", got, want)
	}
	if got, want := tier.owner(tierKey(key)).host, "h2:8080"; got != want {
		t.Errorf("ring places the key on %q, pinned %q", got, want)
	}
}
