package schedule

import (
	"sync"

	"repro/internal/power"
)

// Timeline holds the platform's total work-power draw as a function of
// time and answers the local search's probes against it: the cost change
// of placing a task (PlaceDelta) or of moving one (MoveGain,
// FirstImprovingMove, CandidateStarts), without re-sweeping the horizon.
//
// Two representations back the same API:
//
//   - dense (T ≤ denseHorizonLimit): one work-power level per time unit,
//     plus the per-unit budget and interval index of the profile. Updates
//     and probes are unit loops over the touched range — with the paper's
//     small integer horizons and durations this beats any segment
//     bookkeeping, and the probe semantics are *literally* the unit-step
//     definitions.
//   - sparse (large T): sorted breakpoint times t[0] < t[1] < ... with
//     w[i] the total work power over [t[i], t[i+1)) (w implicitly 0
//     before t[0] and after the last breakpoint).
//
// The timeline keeps levels only, no cost: a caller that needs a
// schedule's total prices it with CarbonCost. Add and Remove touch only
// the levels of their range, and the probes never mutate the timeline at
// all, so the representation only changes on committed moves.
type Timeline struct {
	prof *power.Profile
	idle int64

	// Sparse (segment) representation; nil when dense.
	t []int64
	w []int64

	// Dense representation; nil when sparse. lvl[x] is the work power at
	// unit x; bud[x] and ivx[x] cache the profile's budget and interval
	// index at x so inner loops never binary-search the profile.
	dense bool
	lvl   []int64
	bud   []int64
	ivx   []int32

	// Scratch buffers reused by FirstImprovingMove so the local search's
	// hot path stays allocation-free.
	candBuf []int64
	dcBuf   []int64
	ddBuf   []int64
	wsBuf   []int64

	// scratch is where lvl, bud, ivx and the buffers above came from and
	// go back to on release (see timelineScratch).
	scratch *timelineScratch
}

// timelineScratch is a timeline's horizon-sized storage: the dense
// per-unit arrays and FirstImprovingMove's buffers. A solve takes one per
// timeline from scratchPool and (*ZoneTimelines).Release hands it back,
// so a stream of solves over the same horizon stops allocating — and
// zeroing — three T-sized arrays each. None of it is ever part of an
// answer: the timeline keeps levels, and every query returns scalars.
type timelineScratch struct {
	lvl, bud         []int64
	ivx              []int32
	cand, dc, dd, ws []int64
}

var scratchPool = sync.Pool{New: func() any { return new(timelineScratch) }}

// grow returns buf resliced to n, or a new zeroed slice of n when its
// capacity is short; the caller overwrites or clears what it reuses.
func grow[E any](buf []E, n int64) []E {
	if int64(cap(buf)) < n {
		return make([]E, n)
	}
	return buf[:n]
}

// denseHorizonLimit bounds the horizon length for which timelines use the
// dense per-unit representation (memory O(T) per zone). Tests lower it to
// force the sparse path.
var denseHorizonLimit int64 = 1 << 15

// DenseHorizon reports whether timelines over a horizon of T units use
// the dense per-unit representation rather than the sorted sparse
// breakpoints. Every zone of a ZoneSet shares T, so its timelines are
// either all dense or all sparse.
func DenseHorizon(T int64) bool { return T <= denseHorizonLimit }

// newTimeline builds an empty timeline: only the idle floor draws power.
// Its storage comes from scratchPool. A reused level array is cleared;
// the budget and interval index arrays are rewritten whole, since a
// valid profile's intervals tile [0, T).
func newTimeline(idle int64, prof *power.Profile) *Timeline {
	T := prof.T()
	sc := scratchPool.Get().(*timelineScratch)
	tl := &Timeline{prof: prof, idle: idle, scratch: sc,
		candBuf: sc.cand, dcBuf: sc.dc, ddBuf: sc.dd, wsBuf: sc.ws}
	if DenseHorizon(T) {
		tl.dense = true
		tl.lvl = grow(sc.lvl, T)
		clear(tl.lvl)
		tl.bud = grow(sc.bud, T)
		tl.ivx = grow(sc.ivx, T)
		for j, iv := range prof.Intervals {
			for x := iv.Start; x < iv.End; x++ {
				tl.bud[x] = iv.Budget
				tl.ivx[x] = int32(j)
			}
		}
	} else {
		tl.t = []int64{0, T}
		tl.w = []int64{0, 0}
	}
	return tl
}

// release hands the timeline's storage back to scratchPool and zeroes
// the timeline, so any later use of it panics.
func (tl *Timeline) release() {
	sc := tl.scratch
	if tl.dense {
		sc.lvl, sc.bud, sc.ivx = tl.lvl, tl.bud, tl.ivx
	}
	sc.cand, sc.dc, sc.dd, sc.ws = tl.candBuf, tl.dcBuf, tl.ddBuf, tl.wsBuf
	*tl = Timeline{}
	scratchPool.Put(sc)
}

// find returns the index i with t[i] <= x < t[i+1] (or the last index if x
// is beyond the end). x must be >= t[0]. Hand-rolled binary search: this
// sits on the local search's hot path, where sort.Search's closure calls
// are measurable. Sparse representation only.
func (tl *Timeline) find(x int64) int {
	lo, hi := 0, len(tl.t)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if tl.t[m] > x {
			hi = m
		} else {
			lo = m + 1
		}
	}
	if lo == 0 {
		panic("schedule: timeline query before time origin")
	}
	return lo - 1
}

// ensureBreak inserts a breakpoint at time x (if not present) and returns
// its index. Sparse representation only.
func (tl *Timeline) ensureBreak(x int64) int {
	i := tl.find(x)
	if tl.t[i] == x {
		return i
	}
	// Split segment i at x; the new segment inherits the level.
	tl.t = append(tl.t, 0)
	tl.w = append(tl.w, 0)
	copy(tl.t[i+2:], tl.t[i+1:])
	copy(tl.w[i+2:], tl.w[i+1:])
	tl.t[i+1] = x
	tl.w[i+1] = tl.w[i]
	return i + 1
}

// Add increases the work power by p over [a, b). Draw beyond the horizon
// never costs anything, so the dense representation drops it.
func (tl *Timeline) Add(a, b, p int64) {
	if a >= b || p == 0 {
		return
	}
	if tl.dense {
		for x := a; x < min(b, int64(len(tl.lvl))); x++ {
			tl.lvl[x] += p
		}
		return
	}
	ia := tl.ensureBreak(a)
	ib := tl.ensureBreak(b) // b > a: inserting it leaves ia in place
	for i := ia; i < ib; i++ {
		tl.w[i] += p
	}
}

// Remove decreases the work power by p over [a, b).
func (tl *Timeline) Remove(a, b, p int64) { tl.Add(a, b, -p) }

// PlaceDelta returns the carbon-cost increase of adding a task of work
// power p over [a, b) to the current draw, without changing the timeline:
// Σ over [a, b) of max(lvl + p, 0) − max(lvl, 0), where lvl is the
// overdraw idle + w − G. It is the exact solver's placement probe; the
// tests hold it to the change Add makes to a unit-step cost of the draw.
func (tl *Timeline) PlaceDelta(a, b, p int64) int64 {
	if a < 0 {
		a = 0
	}
	if T := tl.prof.T(); b > T {
		b = T
	}
	if a >= b || p == 0 {
		return 0
	}
	var delta int64
	if tl.dense {
		for x := a; x < b; x++ {
			lvl := tl.idle + tl.lvl[x] - tl.bud[x]
			with, without := lvl+p, lvl
			if with < 0 {
				with = 0
			}
			if without < 0 {
				without = 0
			}
			delta += with - without
		}
		return delta
	}
	i := tl.find(a)
	j := tl.prof.IndexAt(a)
	x := a
	for x < b {
		segEnd := b
		if i+1 < len(tl.t) && tl.t[i+1] < segEnd {
			segEnd = tl.t[i+1]
		}
		iv := tl.prof.Intervals[j]
		if iv.End < segEnd {
			segEnd = iv.End
		}
		lvl := tl.idle + tl.w[i] - iv.Budget
		with, without := lvl+p, lvl
		if with < 0 {
			with = 0
		}
		if without < 0 {
			without = 0
		}
		delta += (with - without) * (segEnd - x)
		x = segEnd
		if i+1 < len(tl.t) && tl.t[i+1] == x {
			i++
		}
		if iv.End == x && j+1 < len(tl.prof.Intervals) {
			j++
		}
	}
	return delta
}

// MoveGain returns the carbon-cost reduction (positive = improvement) of
// moving a task with work power p from [oldA, oldA+dur) to [newA,
// newA+dur). The query walks the affected window once with the move
// applied virtually — the timeline is not touched, so probes no longer
// leave breakpoints behind.
func (tl *Timeline) MoveGain(oldA, newA, dur, p int64) int64 {
	if oldA == newA || dur <= 0 || p == 0 {
		return 0
	}
	T := tl.prof.T()
	oldB, newB := oldA+dur, newA+dur
	var gain int64
	if tl.dense {
		// before − after per touched unit, with the move applied
		// virtually. Units covered by both ranges cancel.
		for x := max64(oldA, 0); x < oldB && x < T; x++ {
			if newA <= x && x < newB {
				continue
			}
			lvl := tl.idle + tl.lvl[x] - tl.bud[x]
			after := lvl - p
			if lvl < 0 {
				lvl = 0
			}
			if after < 0 {
				after = 0
			}
			gain += lvl - after
		}
		for x := max64(newA, 0); x < newB && x < T; x++ {
			if oldA <= x && x < oldB {
				continue
			}
			lvl := tl.idle + tl.lvl[x] - tl.bud[x]
			after := lvl + p
			if lvl < 0 {
				lvl = 0
			}
			if after < 0 {
				after = 0
			}
			gain += lvl - after
		}
		return gain
	}
	lo, hi := oldA, newA
	if lo > hi {
		lo, hi = hi, lo
	}
	hi += dur
	if lo < 0 {
		lo = 0
	}
	if hi > T {
		hi = T
	}
	if lo >= hi {
		return 0
	}
	i := tl.find(lo)
	j := tl.prof.IndexAt(lo)
	x := lo
	for x < hi {
		segEnd := hi
		if i+1 < len(tl.t) && tl.t[i+1] < segEnd {
			segEnd = tl.t[i+1]
		}
		iv := tl.prof.Intervals[j]
		if iv.End < segEnd {
			segEnd = iv.End
		}
		// Split at the edges of the two task ranges: the virtual levels
		// are constant only between them.
		if oldA > x && oldA < segEnd {
			segEnd = oldA
		}
		if oldB > x && oldB < segEnd {
			segEnd = oldB
		}
		if newA > x && newA < segEnd {
			segEnd = newA
		}
		if newB > x && newB < segEnd {
			segEnd = newB
		}
		before := tl.idle + tl.w[i] - iv.Budget
		after := before
		if oldA <= x && x < oldB {
			after -= p
		}
		if newA <= x && x < newB {
			after += p
		}
		if before < 0 {
			before = 0
		}
		if after < 0 {
			after = 0
		}
		gain += (before - after) * (segEnd - x)
		x = segEnd
		if i+1 < len(tl.t) && tl.t[i+1] == x {
			i++
		}
		if iv.End == x && j+1 < len(tl.prof.Intervals) {
			j++
		}
	}
	return gain
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// ApplyMove commits a task move on the timeline (O(touched range)).
func (tl *Timeline) ApplyMove(oldA, newA, dur, p int64) {
	tl.Remove(oldA, oldA+dur, p)
	tl.Add(newA, newA+dur, p)
}

// Compact merges adjacent segments with equal levels; useful to bound
// growth across many moves in the sparse representation. The dense
// representation has nothing to compact.
func (tl *Timeline) Compact() {
	if tl.dense || len(tl.t) == 0 {
		return
	}
	outT := tl.t[:1]
	outW := tl.w[:1]
	for i := 1; i < len(tl.t); i++ {
		if tl.w[i] == outW[len(outW)-1] && i != len(tl.t)-1 {
			continue
		}
		outT = append(outT, tl.t[i])
		outW = append(outW, tl.w[i])
	}
	tl.t = outT
	tl.w = outW
}
