package core

import (
	"fmt"

	"repro/internal/ceg"
	"repro/internal/scherr"
)

// computeEST returns the earliest start time of every node: a forward pass
// over the instance's topological order of Gc, exactly the queue-based
// procedure of Section 5.1 (Kahn-style).
func computeEST(inst *ceg.Instance) []int64 {
	est := make([]int64, inst.N())
	for _, v := range inst.Topo() {
		var s int64
		for _, ei := range inst.G.InEdges(v) {
			e := inst.G.Edges[ei]
			if f := est[e.From] + inst.Dur[e.From]; f > s {
				s = f
			}
		}
		est[v] = s
	}
	return est
}

// computeLST returns the latest start time of every node for deadline T:
// LST(v) = min(T, min over successors LST(w)) − ω(v), via a backward pass.
func computeLST(inst *ceg.Instance, T int64) []int64 {
	order := inst.Topo()
	lst := make([]int64, inst.N())
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		limit := T
		for _, ei := range inst.G.OutEdges(v) {
			e := inst.G.Edges[ei]
			if lst[e.To] < limit {
				limit = lst[e.To]
			}
		}
		lst[v] = limit - inst.Dur[v]
	}
	return lst
}

// windows tracks the feasible start window [est, lst] of every node while
// the greedy pins tasks one by one. Fixing a task propagates: earliest
// starts can only grow (descendants), latest starts can only shrink
// (ancestors), so a worklist converges quickly — the paper's
// O(n + |Ec|) per-update bound is the worst case.
type windows struct {
	inst  *ceg.Instance
	T     int64
	est   []int64
	lst   []int64
	fixed []bool
	queue []int // Fix's worklist, reused across calls
}

// newWindows initializes the windows for deadline T. It returns an error if
// the instance cannot meet the deadline (some window is empty).
func newWindows(inst *ceg.Instance, T int64) (*windows, error) {
	w := &windows{
		inst:  inst,
		T:     T,
		est:   computeEST(inst),
		lst:   computeLST(inst, T),
		fixed: make([]bool, inst.N()),
	}
	for v := 0; v < inst.N(); v++ {
		if w.est[v] > w.lst[v] {
			return nil, &scherr.InfeasibleDeadlineError{
				Deadline: T, Node: v, EST: w.est[v], LST: w.lst[v],
			}
		}
	}
	return w, nil
}

// Fix pins node v to the given start time (which must lie inside its
// current window) and propagates the consequences to all affected windows.
func (w *windows) Fix(v int, start int64) {
	if start < w.est[v] || start > w.lst[v] {
		panic(fmt.Sprintf("core: Fix(%d, %d) outside window [%d, %d]", v, start, w.est[v], w.lst[v]))
	}
	w.est[v] = start
	w.lst[v] = start
	w.fixed[v] = true

	// Forward propagation: ESTs of descendants may increase.
	g := w.inst.G
	queue := append(w.queue[:0], v)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, ei := range g.OutEdges(u) {
			t := g.Edges[ei].To
			if w.fixed[t] {
				continue
			}
			if f := w.est[u] + w.inst.Dur[u]; f > w.est[t] {
				w.est[t] = f
				queue = append(queue, t)
			}
		}
	}
	// Backward propagation: LSTs of ancestors may decrease.
	queue = append(queue[:0], v)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, ei := range g.InEdges(u) {
			s := g.Edges[ei].From
			if w.fixed[s] {
				continue
			}
			if l := w.lst[u] - w.inst.Dur[s]; l < w.lst[s] {
				w.lst[s] = l
				queue = append(queue, s)
			}
		}
	}
	w.queue = queue
}

// Slack returns s(v) = LST(v) − EST(v) under the current windows.
func (w *windows) Slack(v int) int64 { return w.lst[v] - w.est[v] }

// check verifies the window invariants (used by tests): windows non-empty,
// consistent with edges.
func (w *windows) check() error {
	for v := 0; v < w.inst.N(); v++ {
		if w.est[v] > w.lst[v] {
			return fmt.Errorf("core: window of %d empty: [%d, %d]", v, w.est[v], w.lst[v])
		}
		if w.est[v] < 0 || w.lst[v]+w.inst.Dur[v] > w.T {
			return fmt.Errorf("core: window of %d out of horizon: [%d, %d]", v, w.est[v], w.lst[v])
		}
	}
	for _, e := range w.inst.G.Edges {
		if w.est[e.To] < w.est[e.From]+w.inst.Dur[e.From] {
			return fmt.Errorf("core: est inconsistent across edge %d→%d", e.From, e.To)
		}
		if w.lst[e.From] > w.lst[e.To]-w.inst.Dur[e.From] {
			return fmt.Errorf("core: lst inconsistent across edge %d→%d", e.From, e.To)
		}
	}
	return nil
}
