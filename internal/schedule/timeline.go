package schedule

import (
	"repro/internal/power"
)

// Timeline maintains the platform's total work-power draw as a function of
// time and answers carbon-cost queries over arbitrary ranges. The local
// search uses it to evaluate the gain of moving a single task without
// re-sweeping the whole horizon.
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
// Both representations maintain per-profile-interval aggregates — work
// energy and brown energy per boundary window — updated in O(touched
// range) by every Add/Remove. A single-task move therefore keeps the
// total carbon cost (TotalCost, the sum of the brown aggregates) and the
// per-interval breakdown (Breakdown) current without ever re-sweeping the
// horizon; the probe queries (PlaceDelta, MoveGain, FirstImprovingMove)
// never mutate the timeline at all, so the representation only changes on
// committed moves.
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

	// Maintained aggregates, one entry per profile interval: workE[j] is
	// the work energy Σ w·len drawn in interval j, brown[j] the brown
	// energy Σ max(idle + w − B_j, 0)·len, and cost their running total
	// Σ_j brown[j] — equal to RangeCost(0, T) at all times.
	workE []int64
	brown []int64
	cost  int64

	// Scratch buffers reused by FirstImprovingMove so the local search's
	// hot path stays allocation-free.
	candBuf []int64
	dcBuf   []int64
	ddBuf   []int64
	wsBuf   []int64
}

// denseHorizonLimit bounds the horizon length for which timelines use the
// dense per-unit representation (memory O(T) per zone). Tests lower it to
// force the sparse path.
var denseHorizonLimit int64 = 1 << 15

// newTimeline builds an empty timeline (only the idle floor draws power)
// with its aggregates initialized to the idle-only baseline.
func newTimeline(idle int64, prof *power.Profile) *Timeline {
	T := prof.T()
	tl := &Timeline{
		prof:  prof,
		idle:  idle,
		workE: make([]int64, len(prof.Intervals)),
		brown: make([]int64, len(prof.Intervals)),
	}
	if T <= denseHorizonLimit {
		tl.dense = true
		tl.lvl = make([]int64, T)
		tl.bud = make([]int64, T)
		tl.ivx = make([]int32, T)
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
	for j, iv := range prof.Intervals {
		if over := idle - iv.Budget; over > 0 {
			tl.brown[j] = over * iv.Len()
			tl.cost += tl.brown[j]
		}
	}
	return tl
}

// Dense reports whether the timeline uses the dense per-unit
// representation (horizon ≤ denseHorizonLimit) rather than the sorted
// sparse breakpoints — search introspection for the observability layer.
func (tl *Timeline) Dense() bool { return tl.dense }

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

// Add increases the work power by p over [a, b), updating the per-interval
// energy aggregates of every boundary window the range touches.
func (tl *Timeline) Add(a, b, p int64) {
	if a >= b || p == 0 {
		return
	}
	if tl.dense {
		T := int64(len(tl.lvl))
		if b > T {
			b = T // draw beyond the horizon never costs anything
		}
		for x := a; x < b; x++ {
			old := tl.idle + tl.lvl[x] - tl.bud[x]
			tl.lvl[x] += p
			j := tl.ivx[x]
			tl.workE[j] += p
			ob, nb := old, old+p
			if ob < 0 {
				ob = 0
			}
			if nb < 0 {
				nb = 0
			}
			tl.brown[j] += nb - ob
			tl.cost += nb - ob
		}
		return
	}
	ia := tl.ensureBreak(a)
	ib := tl.ensureBreak(b)
	T := tl.prof.T()
	ivs := tl.prof.Intervals
	j := -1
	if a < T {
		j = tl.prof.IndexAt(a)
	}
	for i := ia; i < ib; i++ {
		segEnd := tl.t[i+1]
		old := tl.idle + tl.w[i]
		tl.w[i] += p
		if j < 0 {
			continue // beyond the horizon: levels only, no cost
		}
		x := tl.t[i]
		for x < segEnd && x < T {
			iv := ivs[j]
			pieceEnd := segEnd
			if iv.End < pieceEnd {
				pieceEnd = iv.End
			}
			dlen := pieceEnd - x
			tl.workE[j] += p * dlen
			ob := old - iv.Budget
			if ob < 0 {
				ob = 0
			}
			nb := old + p - iv.Budget
			if nb < 0 {
				nb = 0
			}
			d := (nb - ob) * dlen
			tl.brown[j] += d
			tl.cost += d
			x = pieceEnd
			if x == iv.End {
				if j+1 < len(ivs) {
					j++
				} else {
					j = -1
					break
				}
			}
		}
	}
}

// Remove decreases the work power by p over [a, b).
func (tl *Timeline) Remove(a, b, p int64) { tl.Add(a, b, -p) }

// RangeCost returns the carbon cost accumulated over [a, b) under the
// current power levels: Σ max(idle + w(t) − G(t), 0) over that window.
func (tl *Timeline) RangeCost(a, b int64) int64 {
	if a < 0 {
		a = 0
	}
	if b > tl.prof.T() {
		b = tl.prof.T()
	}
	if a >= b {
		return 0
	}
	var cost int64
	if tl.dense {
		for x := a; x < b; x++ {
			if over := tl.idle + tl.lvl[x] - tl.bud[x]; over > 0 {
				cost += over
			}
		}
		return cost
	}
	i := tl.find(a)
	j := tl.prof.IndexAt(a)
	cur := a
	for cur < b {
		segEnd := b
		if i+1 < len(tl.t) && tl.t[i+1] < segEnd {
			segEnd = tl.t[i+1]
		}
		iv := tl.prof.Intervals[j]
		if iv.End < segEnd {
			segEnd = iv.End
		}
		if over := tl.idle + tl.w[i] - iv.Budget; over > 0 {
			cost += over * (segEnd - cur)
		}
		cur = segEnd
		if i+1 < len(tl.t) && tl.t[i+1] == cur {
			i++
		}
		if iv.End == cur {
			j++
		}
	}
	return cost
}

// TotalCost returns the carbon cost over the whole horizon. It reads the
// maintained brown-energy total, so the query is O(1).
func (tl *Timeline) TotalCost() int64 { return tl.cost }

// Breakdown returns the per-boundary-window carbon accounting of the
// current draw from the maintained aggregates: one IntervalCost per
// profile interval, whose Brown fields sum to TotalCost. It allocates the
// result; energy includes the idle floor, exactly like CostBreakdown.
func (tl *Timeline) Breakdown() []IntervalCost {
	out := make([]IntervalCost, len(tl.prof.Intervals))
	for j, iv := range tl.prof.Intervals {
		energy := tl.workE[j] + tl.idle*iv.Len()
		out[j] = IntervalCost{
			Start:  iv.Start,
			End:    iv.End,
			Budget: iv.Budget,
			Energy: energy,
			Green:  energy - tl.brown[j],
			Brown:  tl.brown[j],
		}
	}
	return out
}

// PlaceDelta returns the carbon-cost increase of adding a task of work
// power p over [a, b) to the current draw, without changing the timeline:
// Σ over [a, b) of max(lvl + p, 0) − max(lvl, 0), where lvl is the
// overdraw idle + w − G. It replaces the Add → RangeCost → Remove probe
// pattern, which mutated (and in the sparse representation permanently
// grew) the timeline on every probe.
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

// ApplyMove commits a task move on the timeline, keeping the per-interval
// aggregates current (O(touched range)).
func (tl *Timeline) ApplyMove(oldA, newA, dur, p int64) {
	tl.Remove(oldA, oldA+dur, p)
	tl.Add(newA, newA+dur, p)
}

// Compact merges adjacent segments with equal levels; useful to bound
// growth across many moves in the sparse representation. The aggregates
// are segmentation-independent, so they are untouched; the dense
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

// NumSegments returns the current number of constant-power segments (for
// tests and instrumentation): breakpoints in the sparse representation,
// level runs plus the origin and horizon sentinels in the dense one.
func (tl *Timeline) NumSegments() int {
	if !tl.dense {
		return len(tl.t)
	}
	n := 2 // origin + horizon sentinel, like the sparse initial {0, T}
	for x := 1; x < len(tl.lvl); x++ {
		if tl.lvl[x] != tl.lvl[x-1] {
			n++
		}
	}
	return n
}
