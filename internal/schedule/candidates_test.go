package schedule

import (
	"slices"
	"testing"

	"repro/internal/power"
	"repro/internal/rng"
)

// bruteFirstImproving is the unit-step reference FirstImprovingMove must
// reproduce exactly.
func bruteFirstImproving(tl *Timeline, cur, lo, hi, dur, p int64) (int64, int64, bool) {
	for cand := lo; cand <= hi; cand++ {
		if cand == cur {
			continue
		}
		if g := tl.MoveGain(cur, cand, dur, p); g > 0 {
			return cand, g, true
		}
	}
	return 0, 0, false
}

func TestFirstImprovingMoveMatchesBruteForce(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		inst, prof, s := randomHEFTInstance(t, 40, seed)
		tl := oneZoneTimeline(inst, s, prof)
		r := rng.New(seed)
		T := prof.T()
		for trial := 0; trial < 60; trial++ {
			v := r.Intn(inst.N())
			dur := inst.Dur[v]
			if dur <= 0 || dur >= T {
				continue
			}
			cur := s.Start[v]
			mu := int64(r.IntRange(1, 40))
			lo := cur - mu
			if lo < 0 {
				lo = 0
			}
			hi := cur + mu
			if hi > T-dur {
				hi = T - dur
			}
			if hi < lo {
				continue
			}
			_, work := inst.ProcPower(v)
			wc, wg, wok := bruteFirstImproving(tl, cur, lo, hi, dur, work)
			gc, gg, gok := tl.FirstImprovingMove(cur, lo, hi, dur, work)
			if wok != gok || wc != gc || wg != gg {
				t.Fatalf("seed %d trial %d: brute (%d,%d,%v) vs jump (%d,%d,%v) for cur=%d window=[%d,%d] dur=%d p=%d",
					seed, trial, wc, wg, wok, gc, gg, gok, cur, lo, hi, dur, work)
			}
			// Occasionally commit the found move so later trials run on a
			// perturbed timeline, like the real local search does.
			if gok && trial%3 == 0 {
				tl.ApplyMove(cur, gc, dur, work)
				s.Start[v] = gc
			}
		}
	}
}

func TestCandidateStartsCoverOptimum(t *testing.T) {
	// Any optimum of the gain over the window must be attained at a
	// candidate start; verify against an exhaustive scan.
	inst, prof, s := randomHEFTInstance(t, 30, 3)
	tl := oneZoneTimeline(inst, s, prof)
	T := prof.T()
	r := rng.New(99)
	for trial := 0; trial < 40; trial++ {
		v := r.Intn(inst.N())
		dur := inst.Dur[v]
		if dur <= 0 || dur >= T {
			continue
		}
		cur := s.Start[v]
		lo, hi := cur-30, cur+30
		if lo < 0 {
			lo = 0
		}
		if hi > T-dur {
			hi = T - dur
		}
		if hi < lo {
			continue
		}
		_, work := inst.ProcPower(v)
		best := int64(-1 << 62)
		for cand := lo; cand <= hi; cand++ {
			if g := tl.MoveGain(cur, cand, dur, work); g > best {
				best = g
			}
		}
		cands := tl.CandidateStarts(lo, hi, dur)
		if len(cands) == 0 {
			t.Fatalf("no candidates in non-empty window [%d,%d]", lo, hi)
		}
		bestCand := int64(-1 << 62)
		for _, cand := range cands {
			if cand < lo || cand > hi {
				t.Fatalf("candidate %d outside window [%d,%d]", cand, lo, hi)
			}
			if g := tl.MoveGain(cur, cand, dur, work); g > bestCand {
				bestCand = g
			}
		}
		// gain(cur) = 0 participates in the exhaustive max whenever cur is
		// inside the window, but cur need not be a candidate.
		if cur >= lo && cur <= hi && bestCand < 0 {
			bestCand = 0
		}
		if bestCand != best {
			t.Fatalf("trial %d: candidate max gain %d != exhaustive max %d", trial, bestCand, best)
		}
	}
}

func TestCandidateStartsDegenerateWindows(t *testing.T) {
	inst := chainInstance(t, 2, []int64{3, 3}, 1, 4)
	prof := power.Constant(20, 2)
	s := asap(inst)
	tl := oneZoneTimeline(inst, s, prof)
	if got := tl.CandidateStarts(5, 4, 3); got != nil {
		t.Errorf("inverted window returned %v", got)
	}
	if got := tl.CandidateStarts(4, 4, 3); len(got) != 1 || got[0] != 4 {
		t.Errorf("point window returned %v", got)
	}
	if _, _, ok := tl.FirstImprovingMove(4, 5, 4, 3, 4); ok {
		t.Error("inverted window reported an improving move")
	}
}

// TestCandidateStartsMatchUnitDefinition holds CandidateStarts to its
// definition, evaluated unit by unit on a dense mirror of the draw: lo, hi
// and every start at which the task's left or right edge meets a unit
// where the level or the interval changes, or the horizon's end. The
// sparse timeline is checked on the same draw after moves that leave
// breakpoints Compact has not merged, and windows run up to the horizon.
func TestCandidateStartsMatchUnitDefinition(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		inst, prof, s := randomHEFTInstance(t, 40, seed)
		T := prof.T()
		dense := oneZoneTimeline(inst, s, prof)
		old := denseHorizonLimit
		denseHorizonLimit = 0
		sparse := oneZoneTimeline(inst, s, prof)
		denseHorizonLimit = old
		change := func(b int64) bool {
			if b <= 0 || b > T {
				return false
			}
			return b == T || dense.lvl[b] != dense.lvl[b-1] || dense.ivx[b] != dense.ivx[b-1]
		}
		r := rng.New(seed)
		for trial := 0; trial < 80; trial++ {
			v := r.Intn(inst.N())
			dur := inst.Dur[v]
			if dur <= 0 || dur >= T {
				continue
			}
			_, work := inst.ProcPower(v)
			if trial%2 == 1 {
				to := r.IntRange(0, T-dur)
				dense.ApplyMove(s.Start[v], to, dur, work)
				sparse.ApplyMove(s.Start[v], to, dur, work)
				s.Start[v] = to
			}
			lo := r.IntRange(0, T-dur)
			hi := min(lo+r.IntRange(0, T), T-dur)
			want := []int64{lo}
			for q := lo + 1; q < hi; q++ {
				if change(q) || change(q+dur) {
					want = append(want, q)
				}
			}
			if hi > lo {
				want = append(want, hi)
			}
			for _, tl := range []*Timeline{dense, sparse} {
				got := tl.CandidateStarts(lo, hi, dur)
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d trial %d (dense %v): [%d,%d] dur %d: got %v, want %v",
						seed, trial, tl.dense, lo, hi, dur, got, want)
				}
			}
		}
	}
}
