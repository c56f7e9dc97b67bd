package core

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/ceg"
	"repro/internal/power"
	"repro/internal/rng"
	"repro/internal/wfgen"
)

// naiveRefinedPoints is an independent, brute-force reimplementation of
// the Section 5.2 subdivision used as a test oracle: enumerate every block
// of at most k consecutive tasks on every processor, align it to every
// boundary, and collect the implied start of every block member.
func naiveRefinedPoints(inst *ceg.Instance, prof *power.Profile, k int) []int64 {
	T := prof.T()
	set := map[int64]bool{}
	for _, tasks := range inst.Order {
		for i := 0; i < len(tasks); i++ {
			for j := i; j < len(tasks) && j-i+1 <= k; j++ {
				block := tasks[i : j+1]
				var total int64
				for _, u := range block {
					total += inst.Dur[u]
				}
				for _, e := range prof.Boundaries() {
					// Start-aligned.
					at := e
					for _, u := range block {
						if at > 0 && at < T && at+inst.Dur[u] <= T {
							set[at] = true
						}
						at += inst.Dur[u]
					}
					// End-aligned.
					at = e - total
					for _, u := range block {
						if at > 0 && at < T {
							set[at] = true
						}
						at += inst.Dur[u]
					}
				}
			}
		}
	}
	out := make([]int64, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestRefinedPointsMatchNaiveProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		fam := wfgen.Families()[r.Intn(4)]
		inst, prof := testInstance(t, fam, 20+r.Intn(30), seed, power.Scenarios()[r.Intn(4)], 1.5)
		k := 1 + r.Intn(4)
		fast := refinedPoints(inst, power.SingleZone(prof), k)[0]
		slow := naiveRefinedPoints(inst, prof, k)
		if len(fast) != len(slow) {
			t.Logf("k=%d: fast %d points, naive %d", k, len(fast), len(slow))
			return false
		}
		for i := range fast {
			if fast[i] != slow[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestRefinedPointsInvalidK(t *testing.T) {
	inst := uniChain(t, []int64{2, 3}, 1, 1)
	prof := power.Constant(20, 5)
	// k < 1 is clamped to 1, not rejected.
	pts := refinedPoints(inst, power.SingleZone(prof), 0)[0]
	if len(pts) == 0 {
		t.Error("k=0 (clamped to 1) should still produce points")
	}
}
