package core

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/power"
)

// The dense form of budgets: a budget per time unit, the breakpoints as a
// bitset, and per 64-unit word a pending subtraction and a cached argmax.
// Every operation is index arithmetic and bit scans:
//
//   - ensuring a breakpoint sets a bit; the per-unit budget already holds
//     the value the new interval inherits, and the word's argmax moves to
//     it only if it beats the cached one;
//   - consume adds p to the pending subtraction of every word [a, e)
//     covers whole and subtracts it unit by unit in the at most two words
//     it covers in part, rescanning a word's breakpoints only when the
//     lowered units include its argmax (or a negative p raised them);
//   - bestStart walks the words of [est, lst]: a word whose cached maximum
//     cannot beat the best so far is skipped, one whose argmax lies in the
//     window answers with it, and any other is scanned over its
//     in-window breakpoints.
//
// So consume costs O((e−a)/64 + 128) and bestStart O((lst−est)/64 + 64).

// denseStore is the horizon-sized storage of a dense structure: bud and
// pend in one array, and arg. A greedy takes one per dense zone from
// densePool and releases it on return; nothing of it reaches a schedule.
type denseStore struct {
	store []int64
	arg   []int8
}

var densePool = sync.Pool{New: func() any { return new(denseStore) }}

// newDenseBudgets builds the dense form over prof. brk is a bitset over
// [0, T) holding the extra breakpoints, which the structure takes over;
// the profile's interval starts are added to it. The storage comes from
// densePool: a reused one clears only pend, since bud is rewritten whole
// (a valid profile's intervals tile [0, T)) and so is every word's arg.
func newDenseBudgets(prof *power.Profile, brk []uint64) *budgets {
	T := prof.T()
	words := int64(len(brk))
	ds := densePool.Get().(*denseStore)
	if int64(cap(ds.store)) < T+words {
		ds.store = make([]int64, T+words)
	}
	if int64(cap(ds.arg)) < words {
		ds.arg = make([]int8, words)
	}
	store := ds.store[:T+words]
	b := &budgets{T: T, dense: true, bud: store[:T], pend: store[T:], brk: brk, arg: ds.arg[:words], store: ds}
	clear(b.pend)
	for _, iv := range prof.Intervals {
		brk[iv.Start>>6] |= 1 << uint(iv.Start&63)
		run := b.bud[iv.Start:iv.End]
		for i := range run {
			run[i] = iv.Budget
		}
	}
	for w := range words {
		b.refreshWord(w)
	}
	return b
}

// release hands a dense structure's storage back to densePool and
// zeroes b, so any later use of it panics. The chunked form owns its
// storage and has nothing to release.
func (b *budgets) release() {
	if b.store != nil {
		densePool.Put(b.store)
	}
	*b = budgets{}
}

// refreshWord recomputes word w's earliest argmax.
func (b *budgets) refreshWord(w int64) {
	m := b.brk[w]
	if m == 0 {
		b.arg[w] = -1
		return
	}
	bud := b.bud[w<<6:]
	k := bits.TrailingZeros64(m)
	for m &= m - 1; m != 0; m &= m - 1 {
		if i := bits.TrailingZeros64(m); bud[i] > bud[k] {
			k = i
		}
	}
	b.arg[w] = int8(k)
}

// denseBreak guarantees a breakpoint at x in [0, T).
func (b *budgets) denseBreak(x int64) {
	w, bit := x>>6, x&63
	if b.brk[w]>>uint(bit)&1 != 0 {
		return
	}
	b.brk[w] |= 1 << uint(bit)
	// The new start inherits the budget of the interval it splits, whose
	// start is earlier. If that start lies in the same word the cached
	// argmax stays; otherwise x may be the word's new earliest maximum.
	a := int64(b.arg[w])
	if a < 0 {
		b.arg[w] = int8(bit)
		return
	}
	if v, best := b.bud[x], b.bud[w<<6+a]; v > best || (v == best && bit < a) {
		b.arg[w] = int8(bit)
	}
}

// denseConsume is consume on the dense form; [a, e) is non-empty and
// inside [0, T).
func (b *budgets) denseConsume(a, e, p int64) {
	if e < b.T {
		b.denseBreak(e)
	}
	b.denseBreak(a)
	for w := a >> 6; w<<6 < e; w++ {
		base := w << 6
		lo, hi := max(a, base), min(e, base+64)
		if hi-lo == 64 {
			b.pend[w] += p
			continue
		}
		run := b.bud[lo:hi]
		for i := range run {
			run[i] -= p
		}
		if k := base + int64(b.arg[w]); p < 0 || (lo <= k && k < hi) {
			b.refreshWord(w)
		}
	}
}

// denseBestStart is bestStart on the dense form, for est ≤ lst.
func (b *budgets) denseBestStart(est, lst int64) (start int64, ok bool) {
	est, lst = max(est, 0), min(lst, b.T-1)
	if est > lst {
		return 0, false
	}
	var best int64
	for w := est >> 6; w <= lst>>6; w++ {
		base := w << 6
		m := b.brk[w]
		if base < est {
			m &= ^uint64(0) << uint(est-base)
		}
		if base+63 > lst {
			m &= ^uint64(0) >> uint(base+63-lst)
		}
		if m == 0 {
			continue
		}
		bud, pend := b.bud[base:], b.pend[w]
		k := int(b.arg[w]) // ≥ 0: the word holds a breakpoint
		if ok && bud[k]-pend <= best {
			continue // not even the word's maximum beats an earlier start
		}
		if m>>uint(k)&1 == 0 {
			k = bits.TrailingZeros64(m)
			for m &= m - 1; m != 0; m &= m - 1 {
				if i := bits.TrailingZeros64(m); bud[i] > bud[k] {
					k = i
				}
			}
		}
		if v := bud[k] - pend; !ok || v > best {
			best, start, ok = v, base+int64(k), true
		}
	}
	return start, ok
}

// denseIntervals is numIntervals on the dense form.
func (b *budgets) denseIntervals() int {
	n := 0
	for _, m := range b.brk {
		n += bits.OnesCount64(m)
	}
	return n
}

// denseBudgetAt is budgetAt on the dense form.
func (b *budgets) denseBudgetAt(x int64) int64 {
	if x < 0 || x >= b.T {
		panic(fmt.Sprintf("core: budgets.budgetAt(%d) outside [0, %d)", x, b.T))
	}
	return b.bud[x] - b.pend[x>>6]
}
