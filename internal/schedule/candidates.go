package schedule

import "math"

// Candidate starts and the first improving move of the local search
// (Section 5.3): when a task of duration dur slides across the window
// [lo, hi], its carbon cost is piecewise linear in the start time. The
// slope can only change where the task's left or right edge crosses a
// unit at which the rest of the platform draw, or the profile interval,
// changes. The candidates walk those units with nextChange, which the
// sparse store answers from its breakpoints, so a sparse task's whole
// slack is never expanded unit by unit; FirstImprovingMove reads the
// per-unit arrays of Timeline.window, so the dense and the sparse
// timeline answer it with the same loop.

// nextChange returns the first unit b > x at which the work-power level or
// the profile interval changes, the horizon's end T counting as a change
// (draw beyond it stops counting), or math.MaxInt64 when x ≥ T. The dense
// store scans its units; the sparse one skips to its next breakpoint whose
// level differs from its left neighbour's (Compact may not have merged the
// others yet) or to the next interval end, whichever comes first.
func (tl *Timeline) nextChange(x int64) int64 {
	T := tl.prof.T()
	if x >= T {
		return math.MaxInt64
	}
	x = max(x, 0)
	if tl.dense {
		for b := x + 1; b < T; b++ {
			if tl.lvl[b] != tl.lvl[b-1] || tl.ivx[b] != tl.ivx[b-1] {
				return b
			}
		}
		return T
	}
	b := tl.prof.Intervals[tl.prof.IndexAt(x)].End
	for i := tl.find(x) + 1; i < len(tl.t) && tl.t[i] < b; i++ {
		if tl.w[i] != tl.w[i-1] {
			return tl.t[i]
		}
	}
	return b
}

// appendCandidateStarts appends the candidate starts in [lo, hi] to dst,
// sorted and deduplicated. See CandidateStarts.
func (tl *Timeline) appendCandidateStarts(dst []int64, lo, hi, dur int64) []int64 {
	if hi < lo {
		return dst
	}
	dst = append(dst, lo)
	// Merge the two sorted runs: the left edge crossing b ∈ (lo, hi) at
	// start b, the right edge crossing b ∈ (lo+dur, hi+dur) at start b − dur.
	l, r := tl.nextChange(lo), tl.nextChange(lo+dur)-dur
	for {
		c := min(l, r)
		if c >= hi {
			break
		}
		dst = append(dst, c)
		if l == c {
			l = tl.nextChange(l)
		}
		if r == c {
			r = tl.nextChange(r+dur) - dur
		}
	}
	if hi > lo {
		dst = append(dst, hi)
	}
	return dst
}

// CandidateStarts returns the sorted, deduplicated start positions in
// [lo, hi] at which the gain of placing a task of duration dur can change
// slope: the window bounds plus every unit b at which the work-power
// level or the profile interval changes (and the horizon's end), aligned
// to the task's left edge (start = b) and right edge (start = b − dur).
// Between consecutive candidates the gain is linear in the start, so
// every optimum over the window is attained at a candidate.
func (tl *Timeline) CandidateStarts(lo, hi, dur int64) []int64 {
	if hi < lo {
		return nil
	}
	return tl.appendCandidateStarts(nil, lo, hi, dur)
}

// AppendCandidateStarts is CandidateStarts appending into dst (which may
// be nil or a reused buffer), for callers that query candidates in a loop
// and want to stay allocation-free.
func (tl *Timeline) AppendCandidateStarts(dst []int64, lo, hi, dur int64) []int64 {
	return tl.appendCandidateStarts(dst, lo, hi, dur)
}

// FirstImprovingMove returns the earliest start newA ∈ [lo, hi], newA ≠
// cur, with MoveGain(cur, newA, dur, p) > 0, together with that gain. It
// returns the exact answer the unit-step reference scan
//
//	for newA := lo; newA <= hi; newA++ {
//		if newA != cur {
//			if g := tl.MoveGain(cur, newA, dur, p); g > 0 { return newA, g, true }
//		}
//	}
//
// would (core's tests keep that loop as their oracle, in
// core/unitstep_test.go), but without one probe per integer start: the
// cost W(q) of the task over [q, q+dur), with its own occupancy removed
// virtually, slides in O(1) per unit start, so the reference loop itself
// is the fast path. The timeline is not changed.
func (tl *Timeline) FirstImprovingMove(cur, lo, hi, dur, p int64) (int64, int64, bool) {
	if lo < 0 {
		lo = 0
	}
	if hi < lo || dur <= 0 {
		return 0, 0, false
	}
	lvls, buds, _, o := tl.window(min(lo, cur), max(hi, cur)+dur)
	buds = buds[:len(lvls)] // one length check for both arrays in f
	// The scan runs in window indices i = x − o. Units outside the window
	// lie outside the horizon, so the task draws nothing there.
	c, cB := cur-o, cur+dur-o
	// f(i) = marginal cost of one unit of the task at i, on the draw
	// with the task's own occupancy virtually removed.
	f := func(i int64) int64 {
		if i < 0 || i >= int64(len(lvls)) {
			return 0
		}
		lvl := tl.idle + lvls[i] - buds[i]
		if c <= i && i < cB {
			lvl -= p
		}
		with, without := lvl+p, lvl
		if with < 0 {
			with = 0
		}
		if without < 0 {
			without = 0
		}
		return with - without
	}
	var wcur int64
	for i := c; i < cB; i++ {
		wcur += f(i)
	}
	var w int64
	for i := lo - o; i < lo-o+dur; i++ {
		w += f(i)
	}
	for q := lo - o; ; q++ {
		if q != c {
			if g := wcur - w; g > 0 {
				return q + o, g, true
			}
		}
		if q >= hi-o {
			break
		}
		w += f(q+dur) - f(q)
	}
	return 0, 0, false
}
