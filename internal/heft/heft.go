// Package heft implements the HEFT list-scheduling algorithm (Topcuoglu,
// Hariri, Wu — "Performance-effective and low-complexity task scheduling
// for heterogeneous computing", IEEE TPDS 2002).
//
// In this repository HEFT plays the role it plays in the paper: it produces
// the *given* mapping and ordering of tasks (and, implicitly, of
// communications) that the carbon-aware scheduler then improves by shifting
// start times. Following Section 6.1, it is a basic implementation without
// special tie-breaking techniques, because HEFT is not carbon-aware either
// way.
package heft

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/dag"
	"repro/internal/platform"
)

// Result is a HEFT schedule: a mapping of tasks to compute processors, the
// per-processor execution order, and the reference start/finish times that
// define the ordering of communications on each link.
type Result struct {
	Proc     []int   // task → compute processor id
	Start    []int64 // HEFT start time of each task
	Finish   []int64 // HEFT finish time of each task
	Order    [][]int // per processor: task ids in execution order
	Makespan int64
}

// slot is an occupied interval on a processor's timeline.
type slot struct {
	start, end int64
	task       int
}

// Schedule runs HEFT for the workflow on the cluster's compute processors.
// Communication between distinct processors costs the platform's CommTime
// of the edge weight; co-located tasks communicate for free. HEFT assumes
// contention-free links (the full-duplex fully connected topology of
// Section 3), so overlapping communications are allowed here; serializing
// them per link is the job of the communication-enhanced DAG.
func Schedule(d *dag.DAG, c *platform.Cluster) (*Result, error) {
	return ListSchedule(d, c, nil)
}

// A Score ranks one candidate placement of a task: on processor p, over
// [start, finish), dur = finish − start. Lower is better.
type Score func(p int, start, finish, dur int64) float64

// ListSchedule is the insertion-based list scheduler behind HEFT and the
// carbon-aware mapping policies of package greenheft, which differ only in
// how they choose among a task's candidate placements. Tasks are taken in
// order of non-increasing upward rank; each is offered its earliest start
// on every compute processor and goes to the placement with the lowest
// score, ties broken by earlier finish and then by lower processor id. A
// nil score is HEFT's: the finish time itself.
func ListSchedule(d *dag.DAG, c *platform.Cluster, score Score) (*Result, error) {
	n := d.N()
	if n == 0 {
		return nil, fmt.Errorf("heft: empty workflow")
	}
	P := c.NumCompute()
	if P == 0 {
		return nil, fmt.Errorf("heft: cluster has no compute processors")
	}

	// A task's execution time depends on the processor's speed only, and
	// a cluster has few distinct speeds (six in Table 1, for 72 or 144
	// processors): class[p] indexes processor p's speed among them, and
	// dur[v*K+k] is task v's execution time at the k-th.
	class := make([]int, P)
	var rep, count []int // per speed class: a processor that has it, how many do
	bySpeed := map[int64]int{}
	for p := 0; p < P; p++ {
		speed := c.Proc(p).Type.Speed
		k, ok := bySpeed[speed]
		if !ok {
			k = len(rep)
			bySpeed[speed] = k
			rep, count = append(rep, p), append(count, 0)
		}
		class[p] = k
		count[k]++
	}
	K := len(rep)
	dur := make([]int64, n*K)

	// Mean execution cost per task over all processors.
	wbar := make([]float64, n)
	for v := 0; v < n; v++ {
		var sum int64
		for k := 0; k < K; k++ {
			dur[v*K+k] = c.ExecTime(d.Tasks[v].Weight, rep[k])
			sum += int64(count[k]) * dur[v*K+k]
		}
		wbar[v] = float64(sum) / float64(P)
	}

	// Upward rank, computed in reverse topological order.
	order, err := d.TopoOrder()
	if err != nil {
		return nil, fmt.Errorf("heft: %w", err)
	}
	rank := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		v := order[i]
		var best float64
		for _, ei := range d.OutEdges(v) {
			e := d.Edges[ei]
			r := float64(c.CommTime(e.Weight)) + rank[e.To]
			if r > best {
				best = r
			}
		}
		rank[v] = wbar[v] + best
	}

	// Priority list: non-increasing rank, ties by task id.
	prio := make([]int, n)
	for i := range prio {
		prio[i] = i
	}
	slices.SortFunc(prio, func(a, b int) int {
		if rank[a] != rank[b] {
			return cmp.Compare(rank[b], rank[a])
		}
		return cmp.Compare(a, b)
	})

	res := &Result{
		Proc:   make([]int, n),
		Start:  make([]int64, n),
		Finish: make([]int64, n),
		Order:  make([][]int, P),
	}
	timeline := make([][]slot, P)
	scheduled := make([]bool, n)
	hosts := make([]bool, P) // hosts[p]: p runs a predecessor of the task at hand

	for _, v := range prio {
		// HEFT's priority order is a topological order (rank decreases
		// along edges), so all predecessors are already scheduled. One
		// pass over them gives the ready time on every processor that
		// runs none of them — all their data arrives over a link — and
		// marks the at most indegree(v) processors where some arrives for
		// free.
		in := d.InEdges(v)
		remote := int64(0)
		for _, ei := range in {
			e := d.Edges[ei]
			if !scheduled[e.From] {
				return nil, fmt.Errorf("heft: priority order visited %d before predecessor %d", v, e.From)
			}
			remote = max(remote, res.Finish[e.From]+c.CommTime(e.Weight))
			hosts[res.Proc[e.From]] = true
		}
		bestProc, bestStart, bestFinish := -1, int64(0), int64(0)
		bestScore := 0.0
		for p := 0; p < P; p++ {
			ready := remote
			if hosts[p] {
				ready = 0
				for _, ei := range in {
					e := d.Edges[ei]
					arr := res.Finish[e.From]
					if res.Proc[e.From] != p {
						arr += c.CommTime(e.Weight)
					}
					ready = max(ready, arr)
				}
			}
			w := dur[v*K+class[p]]
			start := insertionStart(timeline[p], ready, w)
			finish := start + w
			sc := float64(finish)
			if score != nil {
				sc = score(p, start, finish, w)
			}
			if bestProc == -1 || sc < bestScore || (sc == bestScore && finish < bestFinish) {
				bestProc, bestStart, bestFinish, bestScore = p, start, finish, sc
			}
		}
		for _, ei := range in {
			hosts[res.Proc[d.Edges[ei].From]] = false
		}
		res.Proc[v] = bestProc
		res.Start[v] = bestStart
		res.Finish[v] = bestFinish
		scheduled[v] = true
		timeline[bestProc] = insertSlot(timeline[bestProc], slot{bestStart, bestFinish, v})
		if bestFinish > res.Makespan {
			res.Makespan = bestFinish
		}
	}

	for p := 0; p < P; p++ {
		for _, s := range timeline[p] {
			res.Order[p] = append(res.Order[p], s.task)
		}
	}
	return res, nil
}

// insertionStart returns the earliest start ≥ ready on the timeline such
// that a task of length dur fits without overlapping existing slots
// (HEFT's insertion-based scheduling policy). The slots are disjoint and
// sorted by start, hence by end too: everything before the first slot
// that ends after ready is out of the way, and a binary search finds it.
func insertionStart(tl []slot, ready, dur int64) int64 {
	lo, hi := 0, len(tl)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); tl[m].end <= ready {
			lo = m + 1
		} else {
			hi = m
		}
	}
	cur := ready
	for _, s := range tl[lo:] {
		if s.start >= cur+dur {
			return cur // gap before this slot fits
		}
		// Overlaps the candidate window; retry after this slot.
		cur = s.end
	}
	return cur
}

// insertSlot inserts s keeping the timeline sorted by start time.
func insertSlot(tl []slot, s slot) []slot {
	i := sort.Search(len(tl), func(i int) bool { return tl[i].start >= s.start })
	tl = append(tl, slot{})
	copy(tl[i+1:], tl[i:])
	tl[i] = s
	return tl
}

// Validate checks that the result is a legal schedule for d on c:
// precedence respected (with communication delays), durations consistent
// with processor speeds, and Order listing every task exactly once, under
// its own processor, in start order without overlap.
func (r *Result) Validate(d *dag.DAG, c *platform.Cluster) error {
	n := d.N()
	if len(r.Proc) != n || len(r.Start) != n || len(r.Finish) != n {
		return fmt.Errorf("heft: result arrays sized %d,%d,%d, want %d",
			len(r.Proc), len(r.Start), len(r.Finish), n)
	}
	for v := 0; v < n; v++ {
		if r.Proc[v] < 0 || r.Proc[v] >= c.NumCompute() {
			return fmt.Errorf("heft: task %d mapped to invalid processor %d", v, r.Proc[v])
		}
		if want := r.Start[v] + c.ExecTime(d.Tasks[v].Weight, r.Proc[v]); r.Finish[v] != want {
			return fmt.Errorf("heft: task %d finish %d inconsistent with start+dur %d", v, r.Finish[v], want)
		}
		if r.Start[v] < 0 {
			return fmt.Errorf("heft: task %d starts at %d", v, r.Start[v])
		}
	}
	for _, e := range d.Edges {
		arr := r.Finish[e.From]
		if r.Proc[e.From] != r.Proc[e.To] {
			arr += c.CommTime(e.Weight)
		}
		if r.Start[e.To] < arr {
			return fmt.Errorf("heft: edge %d→%d violated: start %d < arrival %d",
				e.From, e.To, r.Start[e.To], arr)
		}
	}
	if len(r.Order) != c.NumCompute() {
		return fmt.Errorf("heft: order lists %d processors, want %d", len(r.Order), c.NumCompute())
	}
	listed := make([]bool, n)
	for p, tasks := range r.Order {
		for i, v := range tasks {
			if v < 0 || v >= n {
				return fmt.Errorf("heft: processor %d order lists unknown task %d", p, v)
			}
			if listed[v] {
				return fmt.Errorf("heft: task %d listed twice in the order", v)
			}
			listed[v] = true
			if r.Proc[v] != p {
				return fmt.Errorf("heft: task %d mapped to processor %d but listed under %d", v, r.Proc[v], p)
			}
			if i > 0 && r.Finish[tasks[i-1]] > r.Start[v] {
				return fmt.Errorf("heft: processor %d tasks %d and %d overlap or are out of start order", p, tasks[i-1], v)
			}
		}
	}
	for v, ok := range listed {
		if !ok {
			return fmt.Errorf("heft: task %d missing from the order", v)
		}
	}
	return nil
}
