// Package dag implements the weighted directed acyclic task graphs used to
// model workflows: G = (V, E, ω, c) from Section 3 of the paper.
//
// Vertices carry an abstract work weight ω (the actual running time depends
// on the processor speed the task is mapped to); edges carry a communication
// weight c (the data volume, in time units at normalized bandwidth 1).
package dag

import (
	"fmt"
	"sort"
)

// Task is a workflow vertex. Weight is the abstract amount of work in
// normalized units; the running time on a concrete processor is derived from
// it by the platform package.
type Task struct {
	ID     int
	Name   string
	Weight int64
}

// Edge is a precedence constraint (From → To) with a communication weight
// (data volume). The weight only matters when the two endpoints are mapped
// to different processors.
type Edge struct {
	From, To int
	Weight   int64
}

// DAG is a directed acyclic task graph. Tasks are indexed 0..N-1; edges are
// stored both as a flat list and as per-vertex adjacency (indices into
// Edges) for fast traversal.
type DAG struct {
	Tasks []Task
	Edges []Edge

	out [][]int // out[v] = indices into Edges with From == v
	in  [][]int // in[v]  = indices into Edges with To == v
}

// New creates a DAG with n isolated tasks of weight 1, named v0..v(n-1).
func New(n int) *DAG {
	d := &DAG{
		Tasks: make([]Task, n),
		out:   make([][]int, n),
		in:    make([][]int, n),
	}
	for i := range d.Tasks {
		d.Tasks[i] = Task{ID: i, Name: fmt.Sprintf("v%d", i), Weight: 1}
	}
	return d
}

// FromEdges creates the DAG with the given tasks (tasks[i] is vertex i)
// and edges, in one pass per slice: the adjacency lists are exactly what
// AddEdge in edge order would give. The DAG takes ownership of both
// slices. Like AddEdge it panics on an endpoint out of range and checks
// nothing else; use Validate for that.
//
// Every list is carved from one backing array with its capacity capped at
// its degree, so a later AddEdge reallocates that vertex's list instead of
// writing into its neighbour's.
func FromEdges(tasks []Task, edges []Edge) *DAG {
	n := len(tasks)
	adj := make([][]int, 2*n)
	d := &DAG{Tasks: tasks, Edges: edges, out: adj[:n:n], in: adj[n:]}
	// Count degrees in the list lengths; nothing is written to b yet.
	b := make([]int, 2*len(edges))
	for i, e := range edges {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			panic(fmt.Sprintf("dag: FromEdges edge %d (%d, %d) out of range for %d tasks", i, e.From, e.To, n))
		}
		d.out[e.From] = b[:len(d.out[e.From])+1]
		d.in[e.To] = b[:len(d.in[e.To])+1]
	}
	o := 0
	for v, l := range adj {
		if deg := len(l); deg > 0 {
			adj[v] = b[o : o : o+deg]
			o += deg
		}
	}
	for i, e := range edges {
		d.out[e.From] = append(d.out[e.From], i)
		d.in[e.To] = append(d.in[e.To], i)
	}
	return d
}

// N returns the number of tasks.
func (d *DAG) N() int { return len(d.Tasks) }

// M returns the number of edges.
func (d *DAG) M() int { return len(d.Edges) }

// SetWeight sets the work weight of task v.
func (d *DAG) SetWeight(v int, w int64) { d.Tasks[v].Weight = w }

// SetName sets the display name of task v.
func (d *DAG) SetName(v int, name string) { d.Tasks[v].Name = name }

// AddEdge adds a precedence edge from u to v with the given communication
// weight and returns its index. It does not check for duplicates or cycles;
// use Validate for that.
func (d *DAG) AddEdge(u, v int, w int64) int {
	if u < 0 || u >= d.N() || v < 0 || v >= d.N() {
		panic(fmt.Sprintf("dag: AddEdge(%d, %d) out of range for %d tasks", u, v, d.N()))
	}
	idx := len(d.Edges)
	d.Edges = append(d.Edges, Edge{From: u, To: v, Weight: w})
	d.out[u] = append(d.out[u], idx)
	d.in[v] = append(d.in[v], idx)
	return idx
}

// HasEdge reports whether an edge u→v exists.
func (d *DAG) HasEdge(u, v int) bool {
	for _, ei := range d.out[u] {
		if d.Edges[ei].To == v {
			return true
		}
	}
	return false
}

// Successors appends the successor vertex ids of v to buf and returns it.
func (d *DAG) Successors(v int, buf []int) []int {
	for _, ei := range d.out[v] {
		buf = append(buf, d.Edges[ei].To)
	}
	return buf
}

// Predecessors appends the predecessor vertex ids of v to buf and returns it.
func (d *DAG) Predecessors(v int, buf []int) []int {
	for _, ei := range d.in[v] {
		buf = append(buf, d.Edges[ei].From)
	}
	return buf
}

// OutEdges returns the indices (into Edges) of edges leaving v.
// The returned slice must not be modified.
func (d *DAG) OutEdges(v int) []int { return d.out[v] }

// InEdges returns the indices (into Edges) of edges entering v.
// The returned slice must not be modified.
func (d *DAG) InEdges(v int) []int { return d.in[v] }

// OutDegree returns the number of edges leaving v.
func (d *DAG) OutDegree(v int) int { return len(d.out[v]) }

// InDegree returns the number of edges entering v.
func (d *DAG) InDegree(v int) int { return len(d.in[v]) }

// Sources returns all vertices with in-degree 0 in increasing id order.
func (d *DAG) Sources() []int {
	var s []int
	for v := range d.Tasks {
		if len(d.in[v]) == 0 {
			s = append(s, v)
		}
	}
	return s
}

// Sinks returns all vertices with out-degree 0 in increasing id order.
func (d *DAG) Sinks() []int {
	var s []int
	for v := range d.Tasks {
		if len(d.out[v]) == 0 {
			s = append(s, v)
		}
	}
	return s
}

// TotalWork returns the sum of all task weights.
func (d *DAG) TotalWork() int64 {
	var sum int64
	for _, t := range d.Tasks {
		sum += t.Weight
	}
	return sum
}

// Clone returns a deep copy of the DAG.
func (d *DAG) Clone() *DAG {
	c := &DAG{
		Tasks: append([]Task(nil), d.Tasks...),
		Edges: append([]Edge(nil), d.Edges...),
		out:   make([][]int, d.N()),
		in:    make([][]int, d.N()),
	}
	for v := range d.out {
		c.out[v] = append([]int(nil), d.out[v]...)
		c.in[v] = append([]int(nil), d.in[v]...)
	}
	return c
}

// Validate checks structural invariants: edge endpoints in range, no
// self-loops, no duplicate edges, positive task weights, non-negative edge
// weights, and acyclicity. It returns the first violation found: edges in
// order, then tasks, then cycles.
//
// Duplicates and cycles are found on the adjacency lists that New,
// AddEdge, FromEdges and Clone keep. An edge appended to Edges directly is
// checked for its range, a self-loop and its weight, but not for being a
// duplicate or closing a cycle.
func (d *DAG) Validate() error {
	dup := d.firstDuplicate()
	for i, e := range d.Edges {
		if e.From < 0 || e.From >= d.N() || e.To < 0 || e.To >= d.N() {
			return fmt.Errorf("dag: edge %d (%d→%d) endpoint out of range", i, e.From, e.To)
		}
		if e.From == e.To {
			return fmt.Errorf("dag: edge %d is a self-loop on %d", i, e.From)
		}
		if e.Weight < 0 {
			return fmt.Errorf("dag: edge %d (%d→%d) has negative weight %d", i, e.From, e.To, e.Weight)
		}
		if i == dup {
			return fmt.Errorf("dag: duplicate edge %d→%d", e.From, e.To)
		}
	}
	for v, t := range d.Tasks {
		if t.Weight <= 0 {
			return fmt.Errorf("dag: task %d has non-positive weight %d", v, t.Weight)
		}
	}
	if _, err := d.TopoOrder(); err != nil {
		return err
	}
	return nil
}

// firstDuplicate returns the lowest index of an edge that repeats the
// endpoints of an earlier one, or -1. It walks each vertex's out-list,
// which holds its edges in edge order, stamping the successors seen: the
// first stamped successor met is that vertex's first duplicate.
func (d *DAG) firstDuplicate() int {
	first := -1
	stamp := make([]int, d.N()) // stamp[w] = u+1: w is a successor of u
	for u, out := range d.out {
		for _, ei := range out {
			w := d.Edges[ei].To
			if stamp[w] == u+1 {
				if first < 0 || ei < first {
					first = ei
				}
				break
			}
			stamp[w] = u + 1
		}
	}
	return first
}

// CriticalPathLength returns the length of the longest path through the DAG
// counting task weights only (communication ignored). This is the ASAP
// makespan lower bound when every task runs at unit speed.
func (d *DAG) CriticalPathLength() int64 {
	order, err := d.TopoOrder()
	if err != nil {
		panic("dag: CriticalPathLength on cyclic graph: " + err.Error())
	}
	finish := make([]int64, d.N())
	var best int64
	for _, v := range order {
		var start int64
		for _, ei := range d.in[v] {
			if f := finish[d.Edges[ei].From]; f > start {
				start = f
			}
		}
		finish[v] = start + d.Tasks[v].Weight
		if finish[v] > best {
			best = finish[v]
		}
	}
	return best
}

// TransitiveClosureReachable reports, for small graphs, whether v can reach w.
func (d *DAG) Reachable(v, w int) bool {
	if v == w {
		return true
	}
	seen := make([]bool, d.N())
	stack := []int{v}
	seen[v] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ei := range d.out[u] {
			t := d.Edges[ei].To
			if t == w {
				return true
			}
			if !seen[t] {
				seen[t] = true
				stack = append(stack, t)
			}
		}
	}
	return false
}

// SortedEdgeList returns a copy of the edges sorted by (From, To); useful
// for stable output.
func (d *DAG) SortedEdgeList() []Edge {
	es := append([]Edge(nil), d.Edges...)
	sort.Slice(es, func(i, j int) bool {
		if es[i].From != es[j].From {
			return es[i].From < es[j].From
		}
		return es[i].To < es[j].To
	})
	return es
}
