package dag

import "fmt"

// ErrCycle is returned by TopoOrder when the graph contains a cycle.
type ErrCycle struct {
	// Remaining is the number of vertices that could not be ordered.
	Remaining int
}

func (e *ErrCycle) Error() string {
	return fmt.Sprintf("dag: graph contains a cycle (%d vertices unordered)", e.Remaining)
}

// TopoOrder returns a topological ordering of the vertices using Kahn's
// algorithm (the same queue-based procedure the paper uses for EST
// computation, Section 5.1). Vertices of equal depth are emitted in
// increasing id order, which makes the result deterministic.
func (d *DAG) TopoOrder() ([]int, error) {
	n := d.N()
	indeg := make([]int, n)
	for v := 0; v < n; v++ {
		indeg[v] = len(d.in[v])
	}
	// A FIFO queue seeded with sources in id order gives a deterministic,
	// breadth-first-flavoured topological order. The order is the queue:
	// a vertex is emitted in the order it is enqueued.
	order := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			order = append(order, v)
		}
	}
	for head := 0; head < len(order); head++ {
		for _, ei := range d.out[order[head]] {
			w := d.Edges[ei].To
			indeg[w]--
			if indeg[w] == 0 {
				order = append(order, w)
			}
		}
	}
	if len(order) != n {
		return nil, &ErrCycle{Remaining: n - len(order)}
	}
	return order, nil
}

// IsTopoOrder reports whether order is a valid topological ordering of d.
func (d *DAG) IsTopoOrder(order []int) bool {
	if len(order) != d.N() {
		return false
	}
	pos := make([]int, d.N())
	seen := make([]bool, d.N())
	for i, v := range order {
		if v < 0 || v >= d.N() || seen[v] {
			return false
		}
		seen[v] = true
		pos[v] = i
	}
	for _, e := range d.Edges {
		if pos[e.From] >= pos[e.To] {
			return false
		}
	}
	return true
}

// Levels returns, for each vertex, the length (in hops) of the longest path
// from any source to it. Sources have level 0. Useful for layered layout and
// for the workflow generator's stage bookkeeping.
func (d *DAG) Levels() []int {
	order, err := d.TopoOrder()
	if err != nil {
		panic("dag: Levels on cyclic graph: " + err.Error())
	}
	lv := make([]int, d.N())
	for _, v := range order {
		for _, ei := range d.in[v] {
			if l := lv[d.Edges[ei].From] + 1; l > lv[v] {
				lv[v] = l
			}
		}
	}
	return lv
}
