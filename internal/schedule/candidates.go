package schedule

// Candidate enumeration for the interval-jumping local search (Section
// 5.3, accelerated): when a task of duration dur slides across the window
// [lo, hi], its carbon cost is piecewise linear in the start time. The
// slope can only change where the task's left or right edge crosses a
// level change of the rest of the platform draw — a timeline breakpoint or
// a profile interval boundary. Enumerating those O(#breakpoints in window)
// starts replaces the unit-step scan over all hi−lo+1 integer starts, and
// a single sweep over the window evaluates the gain at every candidate at
// once instead of one MoveGain probe per start.

// upperBound returns the first index i with a[i] > x (len(a) if none).
// Hand-rolled: sort.Search's closure indirection is measurable in the
// candidate enumeration, which runs once per scanned task per LS round.
func upperBound(a []int64, x int64) int {
	lo, hi := 0, len(a)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if a[m] > x {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

// upperEnd returns the first profile interval index i with End > x.
func (tl *Timeline) upperEnd(x int64) int {
	ivs := tl.prof.Intervals
	lo, hi := 0, len(ivs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if ivs[m].End > x {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

// appendCandidateStarts appends the candidate starts in [lo, hi] to dst,
// sorted and deduplicated. See CandidateStarts.
func (tl *Timeline) appendCandidateStarts(dst []int64, lo, hi, dur int64) []int64 {
	if hi < lo {
		return dst
	}
	base := len(dst)
	dst = append(dst, lo)
	if tl.dense {
		// Dense representation: a level can only change where adjacent
		// units differ (or at an interval boundary or the horizon edge);
		// scan the window directly instead of walking breakpoint arrays.
		T := int64(len(tl.lvl))
		change := func(b int64) bool {
			if b <= 0 || b > T {
				return false
			}
			if b == T {
				return true // draw beyond the horizon stops counting
			}
			return tl.lvl[b] != tl.lvl[b-1] || tl.ivx[b] != tl.ivx[b-1]
		}
		for b := lo + 1; b < hi; b++ { // left edge crosses b
			if change(b) {
				dst = append(dst, b)
			}
		}
		for b := lo + dur + 1; b < hi+dur; b++ { // right edge crosses b
			if change(b) {
				dst = append(dst, b-dur)
			}
		}
		if hi > lo {
			dst = append(dst, hi)
		}
		out := dst[base:]
		for i := 1; i < len(out); i++ {
			for j := i; j > 0 && out[j] < out[j-1]; j-- {
				out[j], out[j-1] = out[j-1], out[j]
			}
		}
		n := 1
		for i := 1; i < len(out); i++ {
			if out[i] != out[n-1] {
				out[n] = out[i]
				n++
			}
		}
		return dst[:base+n]
	}
	add := func(x int64) {
		if x > lo && x < hi {
			dst = append(dst, x)
		}
	}
	// Timeline breakpoints crossed by the left edge: b ∈ (lo, hi).
	for i := upperBound(tl.t, lo); i < len(tl.t) && tl.t[i] < hi; i++ {
		add(tl.t[i])
	}
	// ... and by the right edge: b ∈ (lo+dur, hi+dur).
	for i := upperBound(tl.t, lo+dur); i < len(tl.t) && tl.t[i] < hi+dur; i++ {
		add(tl.t[i] - dur)
	}
	// Profile boundaries, both alignments. Interval starts coincide with
	// the previous interval's end, so the ends (plus time 0, which can
	// never be interior to (lo, hi) with lo ≥ 0) cover all boundaries.
	ivs := tl.prof.Intervals
	for i := tl.upperEnd(lo); i < len(ivs) && ivs[i].End < hi; i++ {
		add(ivs[i].End)
	}
	for i := tl.upperEnd(lo + dur); i < len(ivs) && ivs[i].End < hi+dur; i++ {
		add(ivs[i].End - dur)
	}
	if hi > lo {
		dst = append(dst, hi)
	}
	// The window holds only a handful of candidates; insertion sort avoids
	// sort.Slice's interface overhead on this hot path.
	out := dst[base:]
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	n := 1
	for i := 1; i < len(out); i++ {
		if out[i] != out[n-1] {
			out[n] = out[i]
			n++
		}
	}
	return dst[:base+n]
}

// CandidateStarts returns the sorted, deduplicated start positions in
// [lo, hi] at which the gain of placing a task of duration dur can change
// slope: the window bounds plus every breakpoint b of the timeline or the
// profile, aligned to the task's left edge (start = b) and right edge
// (start = b − dur). Between consecutive candidates the gain is linear in
// the start, so every optimum over the window is attained at a candidate.
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

// removedWindowCosts returns, for each ascending query start q in qs, the
// cost of running a task of power p over [q, q+dur) on top of the current
// draw with the task's own occupancy [rmA, rmA+dur) virtually removed:
// W(q) = Σ over [q, q+dur) of max(lvl+p, 0) − max(lvl, 0), where lvl is
// the platform overdraw idle + w − budget minus p inside the removed
// range. Time at or beyond the horizon contributes nothing. The whole
// batch is answered by one merged sweep of timeline segments and profile
// intervals, two prefix integrals per query — and because the removal is
// virtual, the timeline keeps its breakpoint array untouched.
func (tl *Timeline) removedWindowCosts(qs []int64, dur, p, rmA int64) []int64 {
	rmB := rmA + dur
	k := len(qs)
	dc := resize(&tl.dcBuf, k) // prefix integral at q
	dd := resize(&tl.ddBuf, k) // prefix integral at q+dur
	T := tl.prof.T()
	x := qs[0]
	ti := tl.find(x)
	pi := 0
	if x < T {
		pi = tl.prof.IndexAt(x)
	}
	var acc int64
	advance := func(to int64) {
		for x < to {
			if x >= T {
				x = to
				return
			}
			segEnd := to
			if ti+1 < len(tl.t) && tl.t[ti+1] < segEnd {
				segEnd = tl.t[ti+1]
			}
			iv := tl.prof.Intervals[pi]
			if iv.End < segEnd {
				segEnd = iv.End
			}
			// The virtual level is constant only between the removed
			// range's edges; split the piece there.
			if rmA > x && rmA < segEnd {
				segEnd = rmA
			}
			if rmB > x && rmB < segEnd {
				segEnd = rmB
			}
			lvl := tl.idle + tl.w[ti] - iv.Budget
			if rmA <= x && x < rmB {
				lvl -= p
			}
			with, without := lvl+p, lvl
			if with < 0 {
				with = 0
			}
			if without < 0 {
				without = 0
			}
			acc += (with - without) * (segEnd - x)
			x = segEnd
			if ti+1 < len(tl.t) && tl.t[ti+1] == x {
				ti++
			}
			if iv.End == x && pi+1 < len(tl.prof.Intervals) {
				pi++
			}
		}
	}
	for i, j := 0, 0; i < k || j < k; {
		if i < k && (j >= k || qs[i] <= qs[j]+dur) {
			advance(qs[i])
			dc[i] = acc
			i++
		} else {
			advance(qs[j] + dur)
			dd[j] = acc
			j++
		}
	}
	ws := resize(&tl.wsBuf, k)
	for i := range ws {
		ws[i] = dd[i] - dc[i]
	}
	return ws
}

// resize returns *buf with length n, reusing its capacity.
func resize(buf *[]int64, n int) []int64 {
	if cap(*buf) < n {
		*buf = make([]int64, n)
	}
	*buf = (*buf)[:n]
	return *buf
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
// core/unitstep_test.go), but without mutating the timeline and without
// one probe per integer start: one removedWindowCosts sweep evaluates the
// gain at every CandidateStarts position — with the moving task's
// occupancy removed virtually — and an interior first crossing is
// recovered from the endpoint gains in closed form (the gain is linear
// between consecutive candidates). No breakpoints are inserted, so repeated probes leave the
// timeline's segment count unchanged.
func (tl *Timeline) FirstImprovingMove(cur, lo, hi, dur, p int64) (int64, int64, bool) {
	if lo < 0 {
		lo = 0
	}
	if hi < lo || dur <= 0 {
		return 0, 0, false
	}
	if tl.dense {
		// Dense representation: W(q) slides in O(1) per unit start, so
		// the unit-step reference loop IS the fast path — no candidate
		// enumeration, no interpolation, exact by construction.
		T := int64(len(tl.lvl))
		curB := cur + dur
		// f(x) = marginal cost of one unit of the task at x, on the draw
		// with the task's own occupancy virtually removed.
		f := func(x int64) int64 {
			if x < 0 || x >= T {
				return 0
			}
			lvl := tl.idle + tl.lvl[x] - tl.bud[x]
			if cur <= x && x < curB {
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
		for x := cur; x < curB; x++ {
			wcur += f(x)
		}
		var w int64
		for x := lo; x < lo+dur; x++ {
			w += f(x)
		}
		for q := lo; ; q++ {
			if q != cur {
				if g := wcur - w; g > 0 {
					return q, g, true
				}
			}
			if q >= hi {
				break
			}
			w += f(q+dur) - f(q)
		}
		return 0, 0, false
	}
	qs := tl.appendCandidateStarts(tl.candBuf[:0], lo, hi, dur)
	// The removed landscape can change level at the moving task's own
	// edges even where the full draw does not (Compact merges breakpoints
	// another task's edge compensates exactly), so the task-edge
	// alignments cur±dur must be candidates explicitly — they are not
	// guaranteed to come from the breakpoint array.
	for _, x := range [2]int64{cur - dur, cur + dur} {
		if x > lo && x < hi {
			idx := upperBound(qs, x-1)
			if idx == len(qs) || qs[idx] != x {
				qs = append(qs, 0)
				copy(qs[idx+1:], qs[idx:])
				qs[idx] = x
			}
		}
	}
	// Pin cur as a query point: gain(c) = W(cur) − W(c) needs W at the
	// current start, and a candidate at cur anchors the linear pieces on
	// both sides of it.
	curIdx := upperBound(qs, cur-1)
	if curIdx == len(qs) || qs[curIdx] != cur {
		qs = append(qs, 0)
		copy(qs[curIdx+1:], qs[curIdx:])
		qs[curIdx] = cur
	}
	tl.candBuf = qs

	ws := tl.removedWindowCosts(qs, dur, p, cur)
	wcur := ws[curIdx]

	// scanPiece is the defensive fallback when a piece turns out not to be
	// linear (which the candidate set should rule out): unit-step over the
	// open interval (a, b).
	scanPiece := func(a, b int64) (int64, int64, bool) {
		for cand := a + 1; cand < b; cand++ {
			if cand == cur {
				continue
			}
			if g := tl.MoveGain(cur, cand, dur, p); g > 0 {
				return cand, g, true
			}
		}
		return 0, 0, false
	}

	prev := -1
	for qi, c := range qs {
		if c < lo || c > hi { // cur pinned outside the window
			continue
		}
		g := wcur - ws[qi]
		if prev >= 0 {
			a, ga := qs[prev], wcur-ws[prev]
			// ga ≤ 0 here (a positive candidate returns immediately), so a
			// first improving start interior to (a, c) needs a positive
			// slope, i.e. g > ga.
			if span := c - a; span > 1 && g > ga {
				if diff := g - ga; diff%span == 0 {
					slope := diff / span
					if cand := a + (-ga)/slope + 1; cand < c {
						if cg := tl.MoveGain(cur, cand, dur, p); cg > 0 {
							return cand, cg, true
						}
						// Linearity violated; fall back to scanning.
						if fc, fg, ok := scanPiece(a, c); ok {
							return fc, fg, true
						}
					}
				} else if fc, fg, ok := scanPiece(a, c); ok {
					return fc, fg, true
				}
			}
		}
		if g > 0 && c != cur {
			return c, g, true
		}
		prev = qi
	}
	return 0, 0, false
}
