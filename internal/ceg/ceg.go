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
	"fmt"
	"sort"
	"strconv"

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
	// Cluster is the target platform (with links materialized).
	Cluster *platform.Cluster

	// idlePower is the instance-local platform idle floor, memoized by
	// Build: all compute processors plus exactly the links this instance's
	// communications use. See TotalIdlePower.
	idlePower int64
	// zoneIdle is the per-grid-zone split of idlePower (one entry per
	// cluster zone), memoized by Build. See ZoneIdlePower.
	zoneIdle []int64
}

// N returns the total number of nodes N = n + |E′|.
func (in *Instance) N() int { return in.G.N() }

// IsComm reports whether node v is a communication task.
func (in *Instance) IsComm(v int) bool { return v >= in.NumReal }

// Mapping is the fixed assignment fed into Build: processor per task and
// execution order per processor, plus reference finish times used to fix
// the order of communications on each link (Section 3 assumes this order
// is given with the mapping; HEFT's reference schedule provides it).
type Mapping struct {
	Proc   []int   // task → compute processor
	Order  [][]int // per compute processor: tasks in order
	Finish []int64 // reference finish time per task (for link ordering)
}

// Build constructs the communication-enhanced instance.
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

	// Identify cross-processor edges E′ and assign communication nodes.
	type commTask struct {
		node    int // node id in Gc
		edgeIdx int // index into d.Edges
		link    int // link processor id
		ready   int64
	}
	var comms []commTask
	next := n
	for ei, e := range d.Edges {
		if m.Proc[e.From] != m.Proc[e.To] {
			link := cluster.Link(m.Proc[e.From], m.Proc[e.To])
			comms = append(comms, commTask{
				node:    next,
				edgeIdx: ei,
				link:    link,
				ready:   m.Finish[e.From],
			})
			next++
		}
	}

	N := n + len(comms)
	g := dag.New(N)
	inst := &Instance{
		G:        g,
		NumReal:  n,
		Proc:     make([]int, N),
		Dur:      make([]int64, N),
		Order:    make(map[int][]int, len(m.Order)+len(comms)),
		CommEdge: make([]int, N),
		Cluster:  cluster,
	}

	for v := 0; v < n; v++ {
		g.SetName(v, d.Tasks[v].Name)
		inst.Proc[v] = m.Proc[v]
		inst.Dur[v] = cluster.ExecTime(d.Tasks[v].Weight, m.Proc[v])
		inst.CommEdge[v] = -1
	}
	name := []byte("comm_") // comm_<from>_<to>, built in place
	for _, ct := range comms {
		e := d.Edges[ct.edgeIdx]
		name = strconv.AppendInt(name[:len("comm_")], int64(e.From), 10)
		name = strconv.AppendInt(append(name, '_'), int64(e.To), 10)
		g.SetName(ct.node, string(name))
		inst.Proc[ct.node] = ct.link
		inst.Dur[ct.node] = cluster.CommTime(e.Weight)
		inst.CommEdge[ct.node] = ct.edgeIdx
	}
	// dag.New gives every node weight 1; mirror durations into the graph
	// weights so generic dag tooling (critical path, DOT dumps) is
	// meaningful on Gc.
	for v := 0; v < N; v++ {
		g.SetWeight(v, inst.Dur[v])
	}

	// hasEdge avoids duplicates when an ordering edge coincides with a
	// precedence edge.
	added := make(map[[2]int]bool, d.M()+3*len(comms))
	addEdge := func(u, v int) {
		key := [2]int{u, v}
		if added[key] {
			return
		}
		added[key] = true
		g.AddEdge(u, v, 0)
	}

	// Same-processor precedence edges (E \ E′) and the comm chains.
	commByEdge := make(map[int]int, len(comms)) // edge idx → comm node
	for _, ct := range comms {
		commByEdge[ct.edgeIdx] = ct.node
	}
	for ei, e := range d.Edges {
		if cnode, ok := commByEdge[ei]; ok {
			addEdge(e.From, cnode)
			addEdge(cnode, e.To)
		} else {
			addEdge(e.From, e.To)
		}
	}

	// Ordering edges on compute processors.
	for p, tasks := range m.Order {
		for i := 1; i < len(tasks); i++ {
			addEdge(tasks[i-1], tasks[i])
		}
		if len(tasks) > 0 {
			inst.Order[p] = append([]int(nil), tasks...)
		}
	}

	// Ordering edges on links (E″): communications on the same directed
	// link execute in order of their reference ready times (ties broken
	// by edge index, which is deterministic).
	byLink := make(map[int][]commTask, len(comms))
	for _, ct := range comms {
		byLink[ct.link] = append(byLink[ct.link], ct)
	}
	links := make([]int, 0, len(byLink))
	for l := range byLink {
		links = append(links, l)
	}
	sort.Ints(links)
	for _, l := range links {
		cts := byLink[l]
		sort.Slice(cts, func(i, j int) bool {
			if cts[i].ready != cts[j].ready {
				return cts[i].ready < cts[j].ready
			}
			return cts[i].edgeIdx < cts[j].edgeIdx
		})
		for i := 1; i < len(cts); i++ {
			addEdge(cts[i-1].node, cts[i].node)
		}
		order := make([]int, len(cts))
		for i, ct := range cts {
			order[i] = ct.node
		}
		inst.Order[l] = order
	}

	// Memoize the instance-local idle floor: compute processors plus the
	// distinct links this instance's communications occupy. Summing only
	// the instance's own links (instead of every processor the shared
	// cluster happens to have materialized) keeps the value — and with it
	// profile corridors and carbon costs — a pure function of (workflow,
	// mapping, cluster), independent of what other workflows were planned
	// on the same cluster before or concurrently.
	inst.zoneIdle = make([]int64, cluster.NumZones())
	for z := range inst.zoneIdle {
		inst.zoneIdle[z] = cluster.ZoneComputeIdle(z)
	}
	seenLink := make(map[int]bool, len(comms))
	for _, ct := range comms {
		if !seenLink[ct.link] {
			seenLink[ct.link] = true
			inst.zoneIdle[cluster.ZoneOf(ct.link)] += cluster.Proc(ct.link).Type.Idle
		}
	}
	for _, zi := range inst.zoneIdle {
		inst.idlePower += zi
	}

	if err := inst.Validate(); err != nil {
		return nil, err
	}
	return inst, nil
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
	N := in.N()
	if len(in.Proc) != N || len(in.Dur) != N || len(in.CommEdge) != N {
		return fmt.Errorf("ceg: array sizes inconsistent with %d nodes", N)
	}
	for v := 0; v < N; v++ {
		if in.Dur[v] <= 0 {
			return fmt.Errorf("ceg: node %d has non-positive duration %d", v, in.Dur[v])
		}
		if in.Proc[v] < 0 || in.Proc[v] >= in.Cluster.NumProcs() {
			return fmt.Errorf("ceg: node %d on invalid processor %d", v, in.Proc[v])
		}
		isLink := in.Cluster.Proc(in.Proc[v]).IsLink()
		if in.IsComm(v) != isLink {
			return fmt.Errorf("ceg: node %d comm/link mismatch (comm=%v on link=%v)", v, in.IsComm(v), isLink)
		}
	}
	seen := make([]bool, N)
	for p, tasks := range in.Order {
		for i, v := range tasks {
			if in.Proc[v] != p {
				return fmt.Errorf("ceg: order list of proc %d contains node %d mapped to %d", p, v, in.Proc[v])
			}
			if seen[v] {
				return fmt.Errorf("ceg: node %d appears in two order lists", v)
			}
			seen[v] = true
			if i > 0 && !in.G.HasEdge(tasks[i-1], v) {
				return fmt.Errorf("ceg: missing ordering edge %d→%d on proc %d", tasks[i-1], v, p)
			}
		}
	}
	for v := 0; v < N; v++ {
		if !seen[v] {
			return fmt.Errorf("ceg: node %d missing from all order lists", v)
		}
	}
	if _, err := in.G.TopoOrder(); err != nil {
		return fmt.Errorf("ceg: enhanced DAG is cyclic: %w", err)
	}
	return nil
}

// TotalIdlePower returns the summed idle power of all processors hosting at
// least one node of this instance, plus all other compute processors.
// (Links without any node contribute zero, as allowed by Section 3 — even
// when another workflow sharing the cluster materialized them.) The value
// is memoized by Build, so it is cheap in the cost-sweep hot paths and
// independent of concurrent planning on the shared cluster.
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
