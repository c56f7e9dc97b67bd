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
// Two level stores, one set of probes:
//
//   - dense (T ≤ denseHorizonLimit): one work-power level per time unit,
//     plus the per-unit budget and interval index of the profile.
//   - sparse (large T): sorted breakpoint times t[0] < t[1] < ... with
//     w[i] the total work power over [t[i], t[i+1)) (w implicitly 0
//     before t[0] and after the last breakpoint). Add splits segments;
//     Compact merges equal neighbours.
//
// PlaceDelta, MoveGain and FirstImprovingMove read per-unit levels,
// budgets and interval indices through window: the dense store hands out
// its own arrays, the sparse one expands the probed range into per-unit
// buffers. So each is one unit loop over the touched range, and its
// semantics are literally the unit-step definitions in either store.
// CandidateStarts, which is asked about a task's whole slack, walks the
// changes of the draw instead (nextChange), so it never expands a window.
//
// The timeline keeps levels only, no cost: a caller that needs a
// schedule's total prices it with CarbonCost. Add and Remove touch only
// the levels of their range, and the probes never change the levels, so
// the representation only changes on committed moves. On the sparse store
// a probe does overwrite the window buffers, though: a timeline must not
// be probed from two goroutines at once, and a slice window returns is
// valid only until the next probe.
type Timeline struct {
	prof *power.Profile
	idle int64

	// Sparse (segment) representation; nil when dense.
	t []int64
	w []int64

	// Per-unit arrays. Dense: lvl[x] is the work power at unit x, and
	// bud[x] and ivx[x] cache the profile's budget and interval index at
	// x so inner loops never binary-search the profile. Sparse: the
	// buffers window expands a probed range into.
	dense bool
	lvl   []int64
	bud   []int64
	ivx   []int32

	// scratch is where lvl, bud and ivx came from and go back to on
	// release (see timelineScratch).
	scratch *timelineScratch
}

// timelineScratch is a timeline's per-unit storage: horizon-sized in the
// dense form, the largest probed window in the sparse one. A solve takes
// one per timeline from scratchPool and (*ZoneTimelines).Release hands it
// back, so a stream of solves over the same horizon stops allocating —
// and zeroing — three T-sized arrays each. None of it is ever part of an answer: the timeline keeps levels,
// and every query returns scalars.
type timelineScratch struct {
	lvl, bud []int64
	ivx      []int32
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
// Its storage comes from scratchPool. A reused dense level array is
// cleared; the budget and interval index arrays are rewritten whole,
// since a valid profile's intervals tile [0, T). A sparse timeline keeps
// the arrays as window's buffers, which it overwrites before each read.
func newTimeline(idle int64, prof *power.Profile) *Timeline {
	T := prof.T()
	sc := scratchPool.Get().(*timelineScratch)
	tl := &Timeline{prof: prof, idle: idle, scratch: sc, lvl: sc.lvl, bud: sc.bud, ivx: sc.ivx}
	if DenseHorizon(T) {
		tl.dense = true
		tl.lvl = grow(tl.lvl, T)
		clear(tl.lvl)
		tl.bud = grow(tl.bud, T)
		tl.ivx = grow(tl.ivx, T)
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
	sc.lvl, sc.bud, sc.ivx = tl.lvl, tl.bud, tl.ivx
	*tl = Timeline{}
	scratchPool.Put(sc)
}

// window returns the work-power levels, budgets and interval indices of
// the units [a, b) ∩ [0, T) together with the index origin o of the
// returned slices: unit x is at index x − o. A dense timeline returns its
// own arrays whole, with origin 0. A sparse one expands its segments over
// the range into its buffers, with origin max(a, 0); the expansion is
// valid until the next call.
func (tl *Timeline) window(a, b int64) (lvl, bud []int64, ivx []int32, o int64) {
	if tl.dense {
		return tl.lvl, tl.bud, tl.ivx, 0
	}
	a, b = max(a, 0), min(b, tl.prof.T())
	if a >= b {
		return nil, nil, nil, a
	}
	n := b - a
	tl.lvl, tl.bud, tl.ivx = grow(tl.lvl, n), grow(tl.bud, n), grow(tl.ivx, n)
	ivs := tl.prof.Intervals
	i, j := tl.find(a), tl.prof.IndexAt(a)
	for x := a; x < b; {
		end := min(b, ivs[j].End)
		if i+1 < len(tl.t) {
			end = min(end, tl.t[i+1])
		}
		for ; x < end; x++ {
			tl.lvl[x-a], tl.bud[x-a], tl.ivx[x-a] = tl.w[i], ivs[j].Budget, int32(j)
		}
		if i+1 < len(tl.t) && tl.t[i+1] == x {
			i++
		}
		if ivs[j].End == x && j+1 < len(ivs) {
			j++
		}
	}
	return tl.lvl, tl.bud, tl.ivx, a
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
	a, b = max(a, 0), min(b, tl.prof.T())
	if a >= b || p == 0 {
		return 0
	}
	lvls, buds, _, o := tl.window(a, b)
	var delta int64
	for x := a; x < b; x++ {
		lvl := tl.idle + lvls[x-o] - buds[x-o]
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

// MoveGain returns the carbon-cost reduction (positive = improvement) of
// moving a task with work power p from [oldA, oldA+dur) to [newA,
// newA+dur): before − after per touched unit, with the move applied
// virtually, so the timeline is not touched. Units covered by both ranges
// cancel.
func (tl *Timeline) MoveGain(oldA, newA, dur, p int64) int64 {
	if oldA == newA || dur <= 0 || p == 0 {
		return 0
	}
	T := tl.prof.T()
	oldB, newB := oldA+dur, newA+dur
	var gain int64
	lvls, buds, _, o := tl.window(oldA, oldB)
	for x := max(oldA, 0); x < oldB && x < T; x++ {
		if newA <= x && x < newB {
			continue
		}
		lvl := tl.idle + lvls[x-o] - buds[x-o]
		after := lvl - p
		if lvl < 0 {
			lvl = 0
		}
		if after < 0 {
			after = 0
		}
		gain += lvl - after
	}
	lvls, buds, _, o = tl.window(newA, newB)
	for x := max(newA, 0); x < newB && x < T; x++ {
		if oldA <= x && x < oldB {
			continue
		}
		lvl := tl.idle + lvls[x-o] - buds[x-o]
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
