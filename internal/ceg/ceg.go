// Package ceg builds the communication-enhanced DAG Gc of Section 3.
//
// Given a workflow, a mapping of tasks to processors, and the per-processor
// ordering (e.g. from HEFT), it materializes:
//
//   - one node per original task, with its concrete running time on its
//     assigned processor;
//   - one fictional communication task per cross-processor edge (vi, vj),
//     placed on the link processor of the directed link (proc(vi), proc(vj))
//     with duration c(vi, vj);
//   - dependencies (vi, v_ij) and (v_ij, vj) with zero cost;
//   - ordering edges expressing the fixed execution order on every compute
//     processor and every link (the sets E\E′ plus the chain edges, and E″).
//
// The result is an Instance: the complete input of the carbon-aware
// scheduling problem. All durations are concrete integers; the DAG carries
// no communication costs anymore.
package ceg

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/dag"
	"repro/internal/platform"
)

// Instance is a fully concretized scheduling problem: the enhanced DAG with
// per-node durations, processor assignment, and fixed per-processor order.
type Instance struct {
	// G is the communication-enhanced DAG Gc. Nodes 0..NumReal-1 are the
	// original tasks; nodes NumReal.. are communication tasks. Edge
	// weights in G are meaningless (all constraints are pure precedence).
	G *dag.DAG
	// NumReal is the number of original (compute) tasks n.
	NumReal int
	// Proc maps each node to its processor id (compute or link).
	Proc []int
	// Dur is the concrete duration ω of each node on its processor.
	Dur []int64
	// Order lists, per processor id, the node ids in fixed execution
	// order. Only processors that host at least one node appear.
	Order map[int][]int
	// CommEdge maps communication node id → index of the original edge in
	// the source DAG it carries. Real tasks map to -1.
	CommEdge []int
	// Cluster is the target platform.
	Cluster *platform.Cluster

	// idlePower is the instance-local platform idle floor, memoized by
	// Build: all compute processors plus exactly the links this instance's
	// communications use. See TotalIdlePower.
	idlePower int64
	// zoneIdle is the per-grid-zone split of idlePower (one entry per
	// cluster zone), memoized by Build. See ZoneIdlePower.
	zoneIdle []int64
	// topo and zoneNodes are computed by Build and never written after:
	// instances are shared by the solver's plan memo. See Topo and
	// ZoneNodes.
	topo      []int
	zoneNodes [][]int
}

// N returns the total number of nodes N = n + |E′|.
func (in *Instance) N() int { return in.G.N() }

// IsComm reports whether node v is a communication task.
func (in *Instance) IsComm(v int) bool { return v >= in.NumReal }

// Topo returns the topological order of Gc that Build validated the
// instance with (dag.TopoOrder's order). It must not be modified.
func (in *Instance) Topo() []int { return in.topo }

// ZoneNodes returns the node ids of each cluster grid zone in increasing
// order, one non-nil list per zone (empty for a zone hosting no node).
// The lists must not be modified.
func (in *Instance) ZoneNodes() [][]int { return in.zoneNodes }

// Mapping is the fixed assignment fed into Build: processor per task and
// execution order per processor, plus reference finish times used to fix
// the order of communications on each link (Section 3 assumes this order
// is given with the mapping; HEFT's reference schedule provides it).
type Mapping struct {
	Proc   []int   // task → compute processor
	Order  [][]int // per compute processor: tasks in order
	Finish []int64 // reference finish time per task (for link ordering)
}

// Build constructs the communication-enhanced instance. It allocates only
// what the instance keeps: Gc's tasks and edges (handed to dag.FromEdges),
// the per-node arrays, the order lists (carved from one array), the comm
// names (cut from one string), the topological order and the zone
// partition.
func Build(d *dag.DAG, m *Mapping, cluster *platform.Cluster) (*Instance, error) {
	n := d.N()
	if len(m.Proc) != n {
		return nil, fmt.Errorf("ceg: mapping covers %d tasks, workflow has %d", len(m.Proc), n)
	}
	if len(m.Finish) != n {
		return nil, fmt.Errorf("ceg: mapping has %d finish times, want %d", len(m.Finish), n)
	}
	for v, p := range m.Proc {
		if p < 0 || p >= cluster.NumCompute() {
			return nil, fmt.Errorf("ceg: task %d mapped to invalid processor %d", v, p)
		}
	}

	// Cross-processor edges E′ get one communication node each, numbered
	// in edge order.
	nComm := 0
	for _, e := range d.Edges {
		if m.Proc[e.From] != m.Proc[e.To] {
			nComm++
		}
	}
	N := n + nComm
	inst := &Instance{
		NumReal:  n,
		Proc:     make([]int, N),
		Dur:      make([]int64, N),
		CommEdge: make([]int, N),
		Cluster:  cluster,
	}
	// Graph weights mirror the durations, so generic dag tooling (critical
	// path, DOT dumps) is meaningful on Gc.
	tasks := make([]dag.Task, N)
	for v := 0; v < n; v++ {
		inst.Proc[v] = m.Proc[v]
		inst.Dur[v] = cluster.ExecTime(d.Tasks[v].Weight, m.Proc[v])
		inst.CommEdge[v] = -1
		tasks[v] = dag.Task{ID: v, Name: d.Tasks[v].Name, Weight: inst.Dur[v]}
	}

	// Same-processor precedence edges (E \ E′) and the comm chains
	// vi → v_ij → vj, in edge order. A repeated same-processor edge is
	// added once; comm chains are distinct by construction.
	type commTask struct {
		node    int // node id in Gc
		edgeIdx int // index into d.Edges
		link    int // link processor id
		ready   int64
	}
	comms := make([]commTask, 0, nComm)
	// Room for every input edge, a second chain edge per comm, and the
	// ordering edges: fewer than n on compute processors, nComm on links.
	edges := make([]dag.Edge, 0, d.M()+2*nComm+n)
	for ei, e := range d.Edges {
		if p, q := m.Proc[e.From], m.Proc[e.To]; p != q {
			c := n + len(comms)
			comms = append(comms, commTask{node: c, edgeIdx: ei, link: cluster.Link(p, q), ready: m.Finish[e.From]})
			edges = append(edges, dag.Edge{From: e.From, To: c}, dag.Edge{From: c, To: e.To})
		} else if !repeatsEarlierEdge(d, ei) {
			edges = append(edges, dag.Edge{From: e.From, To: e.To})
		}
	}
	var names strings.Builder // comm_<from>_<to>, every name cut from one buffer
	names.Grow(nComm * (len("comm__") + 2*len(strconv.Itoa(n))))
	var num [20]byte
	for _, ct := range comms {
		e := d.Edges[ct.edgeIdx]
		start := names.Len()
		names.WriteString("comm_")
		names.Write(strconv.AppendInt(num[:0], int64(e.From), 10))
		names.WriteByte('_')
		names.Write(strconv.AppendInt(num[:0], int64(e.To), 10))
		inst.Proc[ct.node] = ct.link
		inst.Dur[ct.node] = cluster.CommTime(e.Weight)
		inst.CommEdge[ct.node] = ct.edgeIdx
		tasks[ct.node] = dag.Task{ID: ct.node, Name: names.String()[start:], Weight: inst.Dur[ct.node]}
	}

	// Communications on the same directed link execute in order of their
	// reference ready times, ties broken by edge index: one sort by (link,
	// ready, edge) lists every link's chain, links in increasing id order.
	slices.SortFunc(comms, func(a, b commTask) int {
		if a.link != b.link {
			return cmp.Compare(a.link, b.link)
		}
		if a.ready != b.ready {
			return cmp.Compare(a.ready, b.ready)
		}
		return cmp.Compare(a.edgeIdx, b.edgeIdx)
	})
	nLinks := 0
	for i := range comms {
		if i == 0 || comms[i].link != comms[i-1].link {
			nLinks++
		}
	}
	inst.Order = make(map[int][]int, len(m.Order)+nLinks)
	listed := nComm
	for _, list := range m.Order {
		listed += len(list)
	}
	orders := make([]int, 0, listed) // every order list, back to back

	// Ordering edges on compute processors. One that repeats a
	// same-processor precedence edge is already there. (A malformed list
	// may name comm nodes; validation rejects it.)
	for p, list := range m.Order {
		for i := 1; i < len(list); i++ {
			u, v := list[i-1], list[i]
			if u >= n || v >= n || m.Proc[u] != m.Proc[v] || !d.HasEdge(u, v) {
				edges = append(edges, dag.Edge{From: u, To: v})
			}
		}
		if len(list) > 0 {
			from := len(orders)
			orders = append(orders, list...)
			inst.Order[p] = orders[from:len(orders):len(orders)]
		}
	}

	// Ordering edges on links (E″), and the instance-local idle floor:
	// compute processors plus the distinct links this instance's
	// communications occupy. A link that carries nothing draws no power
	// (Section 3), so the value — and with it profile corridors and carbon
	// costs — is a function of (workflow, mapping, cluster), whatever else
	// was planned on the same cluster.
	inst.zoneIdle = make([]int64, cluster.NumZones())
	for z := range inst.zoneIdle {
		inst.zoneIdle[z] = cluster.ZoneComputeIdle(z)
	}
	for i := 0; i < len(comms); {
		l := comms[i].link
		inst.zoneIdle[cluster.ZoneOf(l)] += cluster.Proc(l).Type.Idle
		from := len(orders)
		for ; i < len(comms) && comms[i].link == l; i++ {
			if len(orders) > from {
				edges = append(edges, dag.Edge{From: orders[len(orders)-1], To: comms[i].node})
			}
			orders = append(orders, comms[i].node)
		}
		inst.Order[l] = orders[from:len(orders):len(orders)]
	}
	for _, zi := range inst.zoneIdle {
		inst.idlePower += zi
	}

	inst.G = dag.FromEdges(tasks, edges)
	order, err := inst.validate()
	if err != nil {
		return nil, err
	}
	inst.topo = order
	inst.zoneNodes = partitionByZone(inst)
	return inst, nil
}

// repeatsEarlierEdge reports whether an edge before d.Edges[ei] joins the
// same two tasks.
func repeatsEarlierEdge(d *dag.DAG, ei int) bool {
	e := d.Edges[ei]
	for _, j := range d.OutEdges(e.From) {
		if j < ei && d.Edges[j].To == e.To {
			return true
		}
	}
	return false
}

// partitionByZone lists the nodes of every cluster zone, all lists carved
// from one array.
func partitionByZone(in *Instance) [][]int {
	zones := make([][]int, in.NumZones())
	all := make([]int, in.N())
	// Count each zone's nodes in its list length; nothing is written yet.
	for v := range all {
		z := in.ZoneOf(v)
		zones[z] = all[:len(zones[z])+1]
	}
	o := 0
	for z, l := range zones {
		zones[z] = all[o : o : o+len(l)]
		o += len(l)
	}
	for v := range all {
		z := in.ZoneOf(v)
		zones[z] = append(zones[z], v)
	}
	return zones
}

// FromHEFT is a convenience adapter turning a HEFT-style result into a
// Mapping. (It lives here rather than in package heft to keep heft free of
// ceg concepts.)
func FromHEFT(proc []int, order [][]int, finish []int64) *Mapping {
	return &Mapping{Proc: proc, Order: order, Finish: finish}
}

// Validate checks the structural invariants of the instance: durations
// positive, order lists consistent with the mapping, ordering edges
// present, and Gc acyclic.
func (in *Instance) Validate() error {
	_, err := in.validate()
	return err
}

// validate is Validate, returning the topological order that proved Gc
// acyclic.
func (in *Instance) validate() ([]int, error) {
	N := in.N()
	if len(in.Proc) != N || len(in.Dur) != N || len(in.CommEdge) != N {
		return nil, fmt.Errorf("ceg: array sizes inconsistent with %d nodes", N)
	}
	for v := 0; v < N; v++ {
		if in.Dur[v] <= 0 {
			return nil, fmt.Errorf("ceg: node %d has non-positive duration %d", v, in.Dur[v])
		}
		if in.Proc[v] < 0 || in.Proc[v] >= in.Cluster.NumProcs() {
			return nil, fmt.Errorf("ceg: node %d on invalid processor %d", v, in.Proc[v])
		}
		isLink := in.Cluster.Proc(in.Proc[v]).IsLink()
		if in.IsComm(v) != isLink {
			return nil, fmt.Errorf("ceg: node %d comm/link mismatch (comm=%v on link=%v)", v, in.IsComm(v), isLink)
		}
	}
	seen := make([]bool, N)
	for p, tasks := range in.Order {
		for i, v := range tasks {
			if in.Proc[v] != p {
				return nil, fmt.Errorf("ceg: order list of proc %d contains node %d mapped to %d", p, v, in.Proc[v])
			}
			if seen[v] {
				return nil, fmt.Errorf("ceg: node %d appears in two order lists", v)
			}
			seen[v] = true
			if i > 0 && !in.G.HasEdge(tasks[i-1], v) {
				return nil, fmt.Errorf("ceg: missing ordering edge %d→%d on proc %d", tasks[i-1], v, p)
			}
		}
	}
	for v := 0; v < N; v++ {
		if !seen[v] {
			return nil, fmt.Errorf("ceg: node %d missing from all order lists", v)
		}
	}
	order, err := in.G.TopoOrder()
	if err != nil {
		return nil, fmt.Errorf("ceg: enhanced DAG is cyclic: %w", err)
	}
	return order, nil
}

// TotalIdlePower returns the summed idle power of all processors hosting at
// least one node of this instance, plus all other compute processors.
// (Links without any node contribute zero, as allowed by Section 3.) The
// value is memoized by Build, so it is cheap in the cost-sweep hot paths.
func (in *Instance) TotalIdlePower() int64 {
	return in.idlePower
}

// NumZones returns the number of grid zones of the target cluster.
func (in *Instance) NumZones() int { return in.Cluster.NumZones() }

// ZoneOf returns the grid zone of node v's processor.
func (in *Instance) ZoneOf(v int) int { return in.Cluster.ZoneOf(in.Proc[v]) }

// ZoneIdlePower returns the instance-local idle floor of grid zone z: the
// zone's compute processors plus the links of this instance whose source
// lies in z. The values are memoized by Build and sum to TotalIdlePower,
// so per-zone evaluation conserves the global idle floor exactly.
func (in *Instance) ZoneIdlePower(z int) int64 {
	return in.zoneIdle[z]
}

// ProcPower returns (idle, work) power of node v's processor.
func (in *Instance) ProcPower(v int) (idle, work int64) {
	t := in.Cluster.Proc(in.Proc[v]).Type
	return t.Idle, t.Work
}
