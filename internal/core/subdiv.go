package core

import (
	"math/bits"
	"slices"

	"repro/internal/ceg"
	"repro/internal/power"
	"repro/internal/schedule"
)

// refinedPoints computes the refined interval subdivision of Section 5.2,
// per grid zone: on each processor, every block of at most k consecutive
// tasks is tentatively aligned to start or end at each interval boundary of
// *its* zone's profile (the only boundaries its tasks' costs can pivot on);
// the implied start time of every task in the block becomes a subdivision
// point of that zone's budget structure. The paper motivates this with the
// uniprocessor optimality of E-schedules (Lemma 4.2) and fixes k = 3 to
// bound the interval count.
//
// A block member's start is a boundary plus or minus an offset that does
// not depend on the boundary: start-aligned, the durations of the j < k
// tasks before it on its processor; end-aligned, its own duration plus
// those of the r < k tasks after it. The ≈ 2k offsets per task take few
// distinct values (at most k·maxDur+1, and none at or above T can yield a
// point), so the enumeration collects the distinct offsets of a zone
// first and only then crosses them with the zone's J+1 boundaries.
//
// The result has one point set per zone, restricted to (0, T); the
// original boundaries are implicitly present in the budget structure,
// which takes the set as a bitset or as a sorted list (newBudgets).
func refinedPoints(inst *ceg.Instance, zs *power.ZoneSet, k int) []pointSet {
	if k < 1 {
		k = 1
	}
	T := zs.T()
	var maxDur int64
	for _, d := range inst.Dur {
		maxDur = max(maxDur, d)
	}
	span := min(T, int64(k)*maxDur+1)
	starts := make([]offsetSet, zs.NumZones())
	ends := make([]offsetSet, zs.NumZones())
	for z := range starts {
		starts[z] = newOffsetSet(span)
		ends[z] = newOffsetSet(span)
	}

	for _, tasks := range inst.Order {
		if len(tasks) == 0 {
			continue
		}
		z := schedule.NodeZone(inst, zs, tasks[0]) // all of a processor's tasks share its zone
		st, en := &starts[z], &ends[z]
		for i, u := range tasks {
			// u starts the block, or follows its j nearest predecessors.
			var off int64
			for j := 0; off < T; j++ {
				st.add(off, inst.Dur[u])
				if j+1 == k || j == i {
					break
				}
				off += inst.Dur[tasks[i-j-1]]
			}
			// The block ends with u, or with one of its k−1 successors.
			off = 0
			for r := i; r < i+k && r < len(tasks); r++ {
				if off += inst.Dur[tasks[r]]; off >= T {
					break
				}
				en.add(off, 0)
			}
		}
	}

	out := make([]pointSet, zs.NumZones())
	for z := range out {
		bounds := zs.Profile(z).Boundaries()
		st, en := &starts[z], &ends[z]
		ps := newPointSet(T, (len(st.off)+len(en.off))*len(bounds))
		for i, off := range st.off {
			// The smallest duration seen at an offset admits every start
			// a longer task there would.
			last := T - st.dur[i]
			for _, e := range bounds {
				if s := e + off; s > 0 && s < T && s <= last {
					ps.add(s)
				}
			}
		}
		for _, off := range en.off {
			for _, e := range bounds {
				if s := e - off; s > 0 && s < T {
					ps.add(s)
				}
			}
		}
		out[z] = ps
	}
	return out
}

// offsetSetMaxSlots bounds an offsetSet's table: past it (a horizon and
// durations in the tens of thousands) two offsets may share a slot.
const offsetSetMaxSlots = 1 << 14

// offsetSet collects distinct offsets in first-seen order, each with the
// smallest duration it was added with. Membership is a direct-mapped table
// over the offset's low bits, sized by the span the offsets can take, not
// by the horizon; when the span exceeds offsetSetMaxSlots an offset evicted
// by a colliding one can be listed twice, which only costs a repeated
// point that pointSet drops.
type offsetSet struct {
	off  []int64
	dur  []int64
	slot []int32 // slot[off&mask] = 1 + index in off of the last offset mapped there; 0 = empty
	mask int64
}

func newOffsetSet(span int64) offsetSet {
	n := int64(1)
	for n < span && n < offsetSetMaxSlots {
		n <<= 1
	}
	return offsetSet{slot: make([]int32, n), mask: n - 1}
}

func (os *offsetSet) add(off, dur int64) {
	at := &os.slot[off&os.mask]
	if i := int(*at) - 1; i >= 0 && os.off[i] == off {
		os.dur[i] = min(os.dur[i], dur)
		return
	}
	os.off = append(os.off, off)
	os.dur = append(os.dur, dur)
	*at = int32(len(os.off))
}

// pointSet collects points in (0, T) and lists them sorted and
// deduplicated. Crossing offsets with boundaries repeats points heavily,
// so when the horizon is short next to the number of candidates (at most
// 8 bitset words per candidate) the points go straight into a bitset over
// [0, T), which collapses them in O(n + T/64) without a comparison sort
// or a list of the repeats. Sparse points over a huge horizon are kept in
// a list, sized for every candidate up front, and sorted.
type pointSet struct {
	bits []uint64
	pts  []int64
}

// newPointSet returns a set for at most n candidates in (0, T).
func newPointSet(T int64, n int) pointSet {
	if words := (T + 63) >> 6; words <= int64(n)*8 {
		return pointSet{bits: make([]uint64, words)}
	}
	return pointSet{pts: make([]int64, 0, n)}
}

func (ps *pointSet) add(p int64) {
	if ps.bits != nil {
		ps.bits[p>>6] |= 1 << uint(p&63)
		return
	}
	ps.pts = append(ps.pts, p)
}

// count returns the number of distinct points.
func (ps *pointSet) count() int {
	if ps.bits == nil {
		return len(ps.sorted())
	}
	n := 0
	for _, w := range ps.bits {
		n += bits.OnesCount64(w)
	}
	return n
}

// sorted returns the distinct points in increasing order. The list form
// is sorted and deduplicated in place.
func (ps *pointSet) sorted() []int64 {
	if ps.bits == nil {
		slices.Sort(ps.pts)
		ps.pts = slices.Compact(ps.pts)
		return ps.pts
	}
	out := make([]int64, 0, ps.count())
	for wi, w := range ps.bits {
		base := int64(wi) << 6
		for w != 0 {
			out = append(out, base+int64(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return out
}

// bitset returns the points as a bitset over [0, T): the set's own words
// when it has them, which the caller then owns.
func (ps *pointSet) bitset(T int64) []uint64 {
	if ps.bits != nil {
		return ps.bits
	}
	w := make([]uint64, (T+63)>>6)
	for _, p := range ps.pts {
		w[p>>6] |= 1 << uint(p&63)
	}
	return w
}
