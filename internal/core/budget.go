package core

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/power"
)

// budgets is the greedy's dynamic interval structure: a partition of [0, T)
// into intervals carrying a remaining green budget per time unit. It
// supports the two operations of Section 5.2:
//
//   - bestStart: among intervals whose start lies in [est, lst], find the
//     one with the highest remaining budget (ties: earliest start);
//   - consume: subtract a task's power draw from the intervals it covers,
//     splitting partially covered boundary intervals.
//
// It takes one of two forms, picked per zone when it is built from
// J′₀, the profile's interval count plus the distinct refined points
// (newBudgets): dense when T ≤ denseBudgetRatio·J′₀, chunked otherwise.
// The refined subdivision of a short horizon splits nearly every time
// unit, and there index arithmetic beats any search; a long horizon with
// few breakpoints would make a per-unit array, and scans over it, far
// larger than the partition.
//
// The dense form (budgetdense.go) keeps a budget per time unit, the
// breakpoints as a bitset, and per 64-unit word a pending subtraction
// and the earliest argmax among the word's breakpoints. Its memory is
// O(T) = O(J′₀) under the rule.
//
// The chunked form stores the partition as a run of chunks, each a
// sorted slice of interval starts with their budgets. The chunk size S
// is fixed at construction: the smallest power of two whose square
// reaches J, the profile's interval count plus the extra breakpoints,
// kept within [minChunk, maxChunk]. The structure starts as about √J
// chunks of S intervals; a chunk that grows past 2S intervals is cut in
// two. Every chunk carries
//
//   - a pending subtraction pend: interval i's budget is buds[i] − pend, so
//     a consume covering the whole chunk adds to pend in O(1);
//   - arg, the index of its earliest maximum. A uniform subtraction leaves
//     it in place, ensureBreak shifts it when it inserts before it, and it
//     is recomputed only when a consume lowers part of a chunk that
//     includes it.
//
// With n ≤ J + 2·(placements) intervals in C ≈ n/S chunks,
// newChunkedBudgets is one O(J + E) merge over the E extra points (plus
// a sort when they come unsorted), and ensureBreak, consume and
// bestStart each cost O(log n + C + S): binary searches to the chunk,
// O(1) per fully covered chunk, one pass over at most two partially
// covered ones. That is O(√J) while n stays within a constant factor of
// J.
type budgets struct {
	T     int64
	dense bool

	// Chunked form.
	size   int // S; a chunk longer than 2·size is split
	chunks []budgetChunk

	// Dense form: the budget at x is bud[x] − pend[x/64]; bit x of brk
	// is set when an interval starts at x; arg[w] is the offset in word
	// w of its earliest breakpoint with the largest bud, −1 when the
	// word holds no breakpoint.
	bud   []int64
	pend  []int64
	brk   []uint64
	arg   []int8
	store *denseStore // where bud, pend and arg came from
}

type budgetChunk struct {
	starts []int64
	buds   []int64 // budget of interval i is buds[i] - pend
	pend   int64
	arg    int // earliest index of the largest buds entry
}

const (
	minChunk = 16
	maxChunk = 512
)

// chunkSize returns the smallest power of two in [minChunk, maxChunk]
// whose square is at least n, or maxChunk.
func chunkSize(n int) int {
	s := minChunk
	for s < maxChunk && s*s < n {
		s <<= 1
	}
	return s
}

// denseBudgetRatio is the rule that picks a structure's form: dense when
// T ≤ denseBudgetRatio·J′₀. On refined 3-zone greedies the dense form
// wins up to T/J′ ≈ 4, ties at 4–5 and loses from 8 on (the crossover
// table is in docs/ARCHITECTURE.md). Tests change it to force either
// form.
var denseBudgetRatio int64 = 4

// newBudgets builds the structure over the profile, with the points of ps
// (the refined subdivision, empty for none) as extra breakpoints. A
// dense structure takes over ps's words.
func newBudgets(prof *power.Profile, ps *pointSet) *budgets {
	if T := prof.T(); T <= denseBudgetRatio*int64(len(prof.Intervals)+ps.count()) {
		return newDenseBudgets(prof, ps.bitset(T))
	}
	return newChunkedBudgets(prof, ps.sorted())
}

// newChunkedBudgets builds the chunked form from the profile plus
// optional extra breakpoints (the refined subdivision points). Extra
// points outside (0, T) are ignored. One merge of the interval starts
// with the extras writes starts, budgets and argmaxes straight into
// chunk storage carved from a single allocation; each chunk gets S/4
// spare slots so that the breakpoints the greedy inserts rarely
// reallocate it.
func newChunkedBudgets(prof *power.Profile, extra []int64) *budgets {
	T := prof.T()
	// The refined subdivision arrives already sorted and deduplicated
	// (refinedPoints); merge it with the sorted interval starts
	// linearly instead of re-sorting the concatenation. Unsorted extras
	// (tests, ad-hoc callers) are detected here and sorted on a copy.
	n := 0
	sorted := true
	var prev int64
	for _, p := range extra {
		if p > 0 && p < T {
			if p < prev {
				sorted = false
			}
			prev = p
			n++
		}
	}
	if !sorted {
		extra = slices.Clone(extra)
		slices.Sort(extra)
	}
	ivs := prof.Intervals
	size := chunkSize(len(ivs) + n)
	stride := size + size/4
	nc := (len(ivs) + n + size - 1) / size
	store := make([]int64, 2*nc*stride)
	starts, buds := store[:nc*stride], store[nc*stride:]
	b := &budgets{T: T, size: size, chunks: make([]budgetChunk, 0, nc)}
	var c *budgetChunk
	var bud int64 // budget of the last interval the merge passed
	i, j := 0, 0
	for i < len(ivs) || j < len(extra) {
		var v int64
		if j >= len(extra) || (i < len(ivs) && ivs[i].Start <= extra[j]) {
			v, bud = ivs[i].Start, ivs[i].Budget
			i++
		} else {
			v = extra[j]
			j++
			if v <= 0 || v >= T {
				continue
			}
		}
		if c != nil && v == c.starts[len(c.starts)-1] {
			continue
		}
		if c == nil || len(c.starts) == size {
			off := len(b.chunks) * stride
			b.chunks = append(b.chunks, budgetChunk{
				starts: starts[off : off : off+stride],
				buds:   buds[off : off : off+stride],
			})
			c = &b.chunks[len(b.chunks)-1]
		}
		c.starts = append(c.starts, v)
		c.buds = append(c.buds, bud)
		if bud > c.buds[c.arg] {
			c.arg = len(c.buds) - 1
		}
	}
	return b
}

// refresh recomputes the chunk's earliest argmax.
func (c *budgetChunk) refresh() {
	c.arg = 0
	for i, v := range c.buds {
		if v > c.buds[c.arg] {
			c.arg = i
		}
	}
}

// numIntervals returns the current number of intervals J′.
func (b *budgets) numIntervals() int {
	if b.dense {
		return b.denseIntervals()
	}
	n := 0
	for _, c := range b.chunks {
		n += len(c.starts)
	}
	return n
}

// locate returns (chunk index, index within chunk) of the interval
// containing time x (the interval with the largest start ≤ x).
func (b *budgets) locate(x int64) (int, int) {
	if x < 0 || x >= b.T {
		panic(fmt.Sprintf("core: budgets.locate(%d) outside [0, %d)", x, b.T))
	}
	ci := b.chunkOf(x)
	if ci < 0 {
		panic("core: budgets missing origin breakpoint")
	}
	ii, found := slices.BinarySearch(b.chunks[ci].starts, x)
	if !found {
		ii--
	}
	return ci, ii
}

// chunkOf returns the index of the last chunk whose first start is ≤ x,
// or -1 if there is none.
func (b *budgets) chunkOf(x int64) int {
	return sort.Search(len(b.chunks), func(i int) bool { return b.chunks[i].starts[0] > x }) - 1
}

// ensureBreak guarantees a breakpoint at x, splitting the containing
// interval if necessary, and returns its (chunk index, index within
// chunk). x must be in [0, T); x == 0 always exists.
func (b *budgets) ensureBreak(x int64) (int, int) {
	ci, ii := b.locate(x)
	c := &b.chunks[ci]
	if c.starts[ii] == x {
		return ci, ii
	}
	// Insert after ii, inheriting the budget (a split leaves both halves
	// with the original per-unit budget). The copy follows an equal entry,
	// so it is never the earliest maximum; the cached one only moves when
	// the copy lands before it.
	ii++
	c.starts = slices.Insert(c.starts, ii, x)
	c.buds = slices.Insert(c.buds, ii, c.buds[ii-1])
	if ii <= c.arg {
		c.arg++
	}
	if len(c.starts) > 2*b.size {
		b.splitChunk(ci)
		if half := len(b.chunks[ci].starts); ii >= half {
			return ci + 1, ii - half
		}
	}
	return ci, ii
}

// splitChunk moves the upper half of chunk ci into a new chunk after it;
// both halves keep the pending subtraction.
func (b *budgets) splitChunk(ci int) {
	c := &b.chunks[ci]
	half := len(c.starts) / 2
	right := budgetChunk{
		starts: slices.Clone(c.starts[half:]),
		buds:   slices.Clone(c.buds[half:]),
		pend:   c.pend,
	}
	c.starts = c.starts[:half]
	c.buds = c.buds[:half]
	c.refresh()
	right.refresh()
	b.chunks = slices.Insert(b.chunks, ci+1, right)
}

// consume subtracts p from the budget of every time unit in [a, e),
// splitting boundary intervals as needed. Budgets may become negative,
// reflecting brown-power usage. Chunks inside [a, e) take p into their
// pending subtraction; only the at most two chunks the range covers in
// part are touched entry by entry, and rescanned for their argmax only
// when the lowered entries include it (or a negative p raised them).
func (b *budgets) consume(a, e, p int64) {
	if a >= e {
		return
	}
	if a < 0 || e > b.T {
		panic(fmt.Sprintf("core: consume [%d, %d) outside horizon [0, %d)", a, e, b.T))
	}
	if b.dense {
		b.denseConsume(a, e, p)
		return
	}
	if e < b.T {
		b.ensureBreak(e)
	}
	for ci, lo := b.ensureBreak(a); ci < len(b.chunks); ci, lo = ci+1, 0 {
		c := &b.chunks[ci]
		n := len(c.starts)
		if lo == 0 && c.starts[n-1] < e {
			c.pend += p
			continue
		}
		hi := lo
		for ; hi < n && c.starts[hi] < e; hi++ {
			c.buds[hi] -= p
		}
		if p < 0 || (lo <= c.arg && c.arg < hi) {
			c.refresh()
		}
		if hi < n {
			return
		}
	}
}

// bestStart returns the start of the interval with the highest remaining
// budget among intervals whose start lies in [est, lst]. Ties resolve to
// the earliest start. ok is false if no interval start falls in the range.
// The scan starts at the chunk holding est, found by binary search. A
// chunk whose cached maximum cannot beat the best so far is skipped, one
// whose cached argmax lies in the window answers with it, and any other
// is scanned over its in-window entries.
func (b *budgets) bestStart(est, lst int64) (start int64, ok bool) {
	if est > lst {
		return 0, false
	}
	if b.dense {
		return b.denseBestStart(est, lst)
	}
	var best int64
	ci := max(0, b.chunkOf(est))
	for ; ci < len(b.chunks); ci++ {
		c := &b.chunks[ci]
		if c.starts[0] > lst {
			break
		}
		if ok && c.buds[c.arg]-c.pend <= best {
			continue // not even the chunk's maximum beats an earlier start
		}
		lo, hi := 0, len(c.starts)
		if c.starts[0] < est {
			lo, _ = slices.BinarySearch(c.starts, est)
		}
		if c.starts[hi-1] > lst {
			var found bool
			if hi, found = slices.BinarySearch(c.starts, lst); found {
				hi++
			}
		}
		if lo >= hi {
			continue
		}
		k := c.arg
		if k < lo || k >= hi {
			k = lo
			for i := lo + 1; i < hi; i++ {
				if c.buds[i] > c.buds[k] {
					k = i
				}
			}
		}
		if v := c.buds[k] - c.pend; !ok || v > best {
			best, start, ok = v, c.starts[k], true
		}
	}
	return start, ok
}

// budgetAt returns the current per-unit budget at time x (for tests).
func (b *budgets) budgetAt(x int64) int64 {
	if b.dense {
		return b.denseBudgetAt(x)
	}
	ci, ii := b.locate(x)
	c := &b.chunks[ci]
	return c.buds[ii] - c.pend
}
