package core

import (
	"math/bits"
	"slices"
	"sort"

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
// The result has one sorted, deduplicated point list per zone, restricted
// to (0, T); the original boundaries are implicitly present in the budget
// structure.
func refinedPoints(inst *ceg.Instance, zs *power.ZoneSet, k int) [][]int64 {
	if k < 1 {
		k = 1
	}
	T := zs.T()
	out := make([][]int64, zs.NumZones())

	// The block enumeration emits every alignment k·J·m times with heavy
	// duplication (hundreds of thousands of raw points on the evaluation
	// workloads). For the usual small horizons, mark each point in a
	// per-zone bitset over (0, T) as it is generated — deduplication is a
	// bit-OR, no intermediate list, no comparison sort. Huge horizons
	// (where a bitset would dwarf the point count) collect raw points and
	// fall back to sortedUniquePoints.
	const bitsetMaxT = 1 << 22
	var sets [][]uint64
	if T <= bitsetMaxT {
		sets = make([][]uint64, zs.NumZones())
		words := int((T + 63) >> 6)
		for z := range sets {
			sets[z] = make([]uint64, words)
		}
	}

	boundsOf := make([][]int64, zs.NumZones())
	for z := range boundsOf {
		boundsOf[z] = zs.Profile(z).Boundaries()
	}

	// procs in deterministic order.
	procIDs := make([]int, 0, len(inst.Order))
	for p := range inst.Order {
		procIDs = append(procIDs, p)
	}
	sort.Ints(procIDs)

	for _, p := range procIDs {
		tasks := inst.Order[p]
		if len(tasks) == 0 {
			continue
		}
		z := schedule.NodeZone(inst, zs, tasks[0]) // all of p's tasks share its zone
		bounds := boundsOf[z]
		pts := out[z]
		var set []uint64
		if sets != nil {
			set = sets[z]
		}
		mark := func(s int64) {
			if set != nil {
				set[s>>6] |= 1 << uint(s&63)
			} else {
				pts = append(pts, s)
			}
		}
		m := len(tasks)
		for i := 0; i < m; i++ {
			// prefix[j] = total duration of tasks[i..i+j-1].
			var prefix int64
			for L := 1; L <= k && i+L <= m; L++ {
				blockDur := prefix + inst.Dur[tasks[i+L-1]]
				// Candidate alignments of the block [i, i+L).
				for _, e := range bounds {
					// Block starts at e: task i+j starts at e + prefix(j).
					var acc int64
					for j := 0; j < L; j++ {
						u := tasks[i+j]
						s := e + acc
						if s > 0 && s < T && s+inst.Dur[u] <= T {
							mark(s)
						}
						acc += inst.Dur[u]
					}
					// Block ends at e: last task ends at e, so task i+j
					// starts at e − (blockDur − prefix(j)).
					acc = 0
					for j := 0; j < L; j++ {
						u := tasks[i+j]
						s := e - (blockDur - acc)
						if s > 0 && s < T {
							mark(s)
						}
						acc += inst.Dur[u]
					}
				}
				prefix = blockDur
			}
		}
		out[z] = pts
	}
	for z := range out {
		if sets != nil {
			out[z] = bitsetToSorted(sets[z])
		} else {
			out[z] = sortedUniquePoints(out[z], T)
		}
	}
	return out
}

// bitsetToSorted extracts the set bits of a bitset as a sorted slice.
func bitsetToSorted(set []uint64) []int64 {
	n := 0
	for _, w := range set {
		n += bits.OnesCount64(w)
	}
	pts := make([]int64, 0, n)
	for wi, w := range set {
		base := int64(wi) << 6
		for w != 0 {
			pts = append(pts, base+int64(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return pts
}

// sortedUniquePoints sorts and deduplicates a list of points in (0, T).
// The block enumeration emits every alignment k·J·m times, so the raw list
// runs to hundreds of thousands of entries with heavy duplication; a
// bitset over [0, T) collapses it in O(n + T/64) without a comparison
// sort, which profiling shows otherwise dominates the whole greedy phase.
// Sparse point sets over a huge horizon fall back to an ordinary sort.
func sortedUniquePoints(pts []int64, T int64) []int64 {
	if len(pts) == 0 {
		return pts
	}
	if words := (T + 63) >> 6; words <= int64(len(pts))*8 {
		set := make([]uint64, words)
		for _, p := range pts {
			set[p>>6] |= 1 << uint(p&63)
		}
		uniq := pts[:0]
		for wi, w := range set {
			base := int64(wi) << 6
			for w != 0 {
				uniq = append(uniq, base+int64(bits.TrailingZeros64(w)))
				w &= w - 1
			}
		}
		return uniq
	}
	slices.Sort(pts)
	uniq := pts[:0]
	for i, p := range pts {
		if i == 0 || p != uniq[len(uniq)-1] {
			uniq = append(uniq, p)
		}
	}
	return uniq
}

// mergeSortedUnique merges two sorted, deduplicated point lists into a new
// sorted, deduplicated list.
func mergeSortedUnique(a, b []int64) []int64 {
	out := make([]int64, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var v int64
		if j >= len(b) || (i < len(a) && a[i] <= b[j]) {
			v = a[i]
			i++
		} else {
			v = b[j]
			j++
		}
		if len(out) == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}
