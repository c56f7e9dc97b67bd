package ceg

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"testing"
	"testing/quick"

	"repro/internal/dag"
	"repro/internal/heft"
	"repro/internal/platform"
	"repro/internal/wfgen"
)

func tinyCluster() *platform.Cluster {
	types := []platform.ProcType{
		{Name: "A", Speed: 1, Idle: 2, Work: 3},
		{Name: "B", Speed: 2, Idle: 4, Work: 5},
	}
	return platform.New(types, []int{1, 1}, 1)
}

// crossInstance builds a 2-task chain split across two processors.
func crossInstance(t *testing.T) *Instance {
	t.Helper()
	d := dag.New(2)
	d.SetWeight(0, 4)
	d.SetWeight(1, 4)
	d.AddEdge(0, 1, 3)
	m := &Mapping{
		Proc:   []int{0, 1},
		Order:  [][]int{{0}, {1}},
		Finish: []int64{4, 9},
	}
	inst, err := Build(d, m, tinyCluster())
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestBuildCreatesCommTask(t *testing.T) {
	inst := crossInstance(t)
	if inst.N() != 3 {
		t.Fatalf("N = %d, want 3 (2 real + 1 comm)", inst.N())
	}
	if inst.NumReal != 2 {
		t.Errorf("NumReal = %d, want 2", inst.NumReal)
	}
	comm := 2
	if !inst.IsComm(comm) || inst.IsComm(0) || inst.IsComm(1) {
		t.Error("IsComm classification wrong")
	}
	if inst.Dur[comm] != 3 {
		t.Errorf("comm duration = %d, want 3 (edge weight at bandwidth 1)", inst.Dur[comm])
	}
	if !inst.Cluster.Proc(inst.Proc[comm]).IsLink() {
		t.Error("comm task not on a link processor")
	}
	// Dependencies vi → v_ij → vj replace the original edge.
	if !inst.G.HasEdge(0, comm) || !inst.G.HasEdge(comm, 1) {
		t.Error("comm dependencies missing")
	}
	if inst.G.HasEdge(0, 1) {
		t.Error("original cross edge should be replaced, not kept")
	}
	if inst.CommEdge[comm] != 0 {
		t.Errorf("CommEdge = %d, want 0", inst.CommEdge[comm])
	}
}

func TestBuildSameProcKeepsPlainEdge(t *testing.T) {
	d := dag.New(2)
	d.AddEdge(0, 1, 3)
	m := &Mapping{Proc: []int{0, 0}, Order: [][]int{{0, 1}, nil}, Finish: []int64{1, 2}}
	inst, err := Build(d, m, tinyCluster())
	if err != nil {
		t.Fatal(err)
	}
	if inst.N() != 2 {
		t.Fatalf("N = %d, want 2 (no comm task on same proc)", inst.N())
	}
	if !inst.G.HasEdge(0, 1) {
		t.Error("same-proc precedence edge missing")
	}
}

func TestBuildDurationsUseSpeed(t *testing.T) {
	d := dag.New(2)
	d.SetWeight(0, 4)
	d.SetWeight(1, 4)
	m := &Mapping{Proc: []int{0, 1}, Order: [][]int{{0}, {1}}, Finish: []int64{4, 2}}
	inst, err := Build(d, m, tinyCluster())
	if err != nil {
		t.Fatal(err)
	}
	if inst.Dur[0] != 4 { // speed 1
		t.Errorf("Dur[0] = %d, want 4", inst.Dur[0])
	}
	if inst.Dur[1] != 2 { // speed 2
		t.Errorf("Dur[1] = %d, want 2", inst.Dur[1])
	}
}

func TestBuildOrderingEdges(t *testing.T) {
	// Two independent tasks forced into an order on the same processor.
	d := dag.New(2)
	m := &Mapping{Proc: []int{0, 0}, Order: [][]int{{1, 0}, nil}, Finish: []int64{2, 1}}
	inst, err := Build(d, m, tinyCluster())
	if err != nil {
		t.Fatal(err)
	}
	if !inst.G.HasEdge(1, 0) {
		t.Error("ordering edge 1→0 missing")
	}
	if got := inst.Order[0]; len(got) != 2 || got[0] != 1 || got[1] != 0 {
		t.Errorf("Order[0] = %v, want [1 0]", got)
	}
}

func TestBuildLinkSerialization(t *testing.T) {
	// Two edges between the same processor pair must share one link and
	// be chained in ready-time order.
	d := dag.New(4)
	d.AddEdge(0, 2, 5) // ready at finish(0)=10
	d.AddEdge(1, 3, 5) // ready at finish(1)=4
	m := &Mapping{
		Proc:   []int{0, 0, 1, 1},
		Order:  [][]int{{1, 0}, {3, 2}},
		Finish: []int64{10, 4, 20, 12},
	}
	inst, err := Build(d, m, tinyCluster())
	if err != nil {
		t.Fatal(err)
	}
	if inst.N() != 6 {
		t.Fatalf("N = %d, want 6", inst.N())
	}
	c02, c13 := -1, -1
	for v := inst.NumReal; v < inst.N(); v++ {
		e := d.Edges[inst.CommEdge[v]]
		switch {
		case e.From == 0:
			c02 = v
		case e.From == 1:
			c13 = v
		}
	}
	if inst.Proc[c02] != inst.Proc[c13] {
		t.Fatal("both comms should share the 0→1 link")
	}
	// comm(1→3) has earlier ready time (4 < 10), so it precedes comm(0→2).
	if !inst.G.HasEdge(c13, c02) {
		t.Error("link ordering edge missing or wrong direction")
	}
	order := inst.Order[inst.Proc[c02]]
	if len(order) != 2 || order[0] != c13 || order[1] != c02 {
		t.Errorf("link order = %v, want [%d %d]", order, c13, c02)
	}
}

func TestBuildOppositeLinksIndependent(t *testing.T) {
	// Comms 0→1 and 1→0 directions use distinct links (full duplex).
	d := dag.New(4)
	d.AddEdge(0, 1, 2) // proc 0 → proc 1
	d.AddEdge(2, 3, 2) // proc 1 → proc 0
	m := &Mapping{
		Proc:   []int{0, 1, 1, 0},
		Order:  [][]int{{0, 3}, {2, 1}},
		Finish: []int64{2, 8, 2, 8},
	}
	inst, err := Build(d, m, tinyCluster())
	if err != nil {
		t.Fatal(err)
	}
	if inst.Proc[4] == inst.Proc[5] {
		t.Error("opposite directions must not share a link processor")
	}
}

func TestBuildRejectsBadMappings(t *testing.T) {
	d := dag.New(2)
	c := tinyCluster()
	if _, err := Build(d, &Mapping{Proc: []int{0}, Order: [][]int{{0}}, Finish: []int64{1}}, c); err == nil {
		t.Error("short Proc not rejected")
	}
	if _, err := Build(d, &Mapping{Proc: []int{0, 9}, Order: [][]int{{0}, {1}}, Finish: []int64{1, 1}}, c); err == nil {
		t.Error("invalid processor id not rejected")
	}
	if _, err := Build(d, &Mapping{Proc: []int{0, 0}, Order: [][]int{{0, 1}}, Finish: []int64{1}}, c); err == nil {
		t.Error("short Finish not rejected")
	}
	// Order contradicting precedence creates a cycle in Gc.
	dd := dag.New(2)
	dd.AddEdge(0, 1, 1)
	if _, err := Build(dd, &Mapping{Proc: []int{0, 0}, Order: [][]int{{1, 0}, nil}, Finish: []int64{2, 1}}, tinyCluster()); err == nil {
		t.Error("order contradicting precedence not rejected")
	}
}

func TestBuildFromHEFTWorkflow(t *testing.T) {
	d, err := wfgen.Generate(wfgen.Atacseq, 200, 4)
	if err != nil {
		t.Fatal(err)
	}
	cluster := platform.Small(4)
	h, err := heft.Schedule(d, cluster)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := Build(d, FromHEFT(h.Proc, h.Order, h.Finish), cluster)
	if err != nil {
		t.Fatal(err)
	}
	if inst.NumReal != 200 {
		t.Errorf("NumReal = %d, want 200", inst.NumReal)
	}
	if inst.N() <= 200 {
		t.Error("expected communication tasks for a HEFT mapping on 72 nodes")
	}
	if err := inst.Validate(); err != nil {
		t.Error(err)
	}
	// Every node appears in exactly one order list.
	count := 0
	for _, tasks := range inst.Order {
		count += len(tasks)
	}
	if count != inst.N() {
		t.Errorf("order lists cover %d nodes, want %d", count, inst.N())
	}
	// A communication task is named after the edge it carries (the names
	// reach DOT dumps and the wire export).
	for v := inst.NumReal; v < inst.N(); v++ {
		e := d.Edges[inst.CommEdge[v]]
		if want := fmt.Sprintf("comm_%d_%d", e.From, e.To); inst.G.Tasks[v].Name != want {
			t.Fatalf("node %d is named %q, want %q", v, inst.G.Tasks[v].Name, want)
		}
	}
}

func TestBuildHEFTProperty(t *testing.T) {
	f := func(seed uint64, famRaw uint8) bool {
		fam := wfgen.Families()[int(famRaw)%4]
		d, err := wfgen.Generate(fam, 80, seed)
		if err != nil {
			return false
		}
		cluster := platform.Small(seed)
		h, err := heft.Schedule(d, cluster)
		if err != nil {
			return false
		}
		inst, err := Build(d, FromHEFT(h.Proc, h.Order, h.Finish), cluster)
		if err != nil {
			return false
		}
		return inst.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestProcPower(t *testing.T) {
	inst := crossInstance(t)
	idle, work := inst.ProcPower(0)
	if idle != 2 || work != 3 {
		t.Errorf("ProcPower(0) = %d,%d want 2,3", idle, work)
	}
	idle, work = inst.ProcPower(2) // comm task on link
	if idle < 1 || idle > 2 || work < 1 || work > 2 {
		t.Errorf("link power (%d,%d) outside {1,2}", idle, work)
	}
}

func TestTotalIdlePowerIncludesLinks(t *testing.T) {
	inst := crossInstance(t)
	// Compute idle 2+4=6, plus one link with idle in {1,2}.
	got := inst.TotalIdlePower()
	if got < 7 || got > 8 {
		t.Errorf("TotalIdlePower = %d, want 7 or 8", got)
	}
}

// mapBuild is the map-based construction of Gc that Build replaced, kept
// verbatim as the oracle of TestBuildMatchesMapBuild: edges are deduped
// through a map, communications are grouped per link in a map and sorted
// link by link, and the graph grows one AddEdge at a time.
func mapBuild(d *dag.DAG, m *Mapping, cluster *platform.Cluster) (*Instance, error) {
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

// instanceDiff returns the first difference between two instances, or ""
// when they agree on every node, edge, adjacency list, processor,
// duration, carried edge, order list and idle floor.
func instanceDiff(got, want *Instance) string {
	for _, c := range []struct {
		what string
		diff string
	}{
		{"tasks", mismatch(got.G.Tasks, want.G.Tasks)},
		{"edges", mismatch(got.G.Edges, want.G.Edges)},
		{"Proc", mismatch(got.Proc, want.Proc)},
		{"Dur", mismatch(got.Dur, want.Dur)},
		{"CommEdge", mismatch(got.CommEdge, want.CommEdge)},
		{"zone idle floors", mismatch(got.zoneIdle, want.zoneIdle)},
	} {
		if c.diff != "" {
			return c.what + " differ " + c.diff
		}
	}
	for v := 0; v < want.N(); v++ {
		if !slices.Equal(got.G.OutEdges(v), want.G.OutEdges(v)) || !slices.Equal(got.G.InEdges(v), want.G.InEdges(v)) {
			return fmt.Sprintf("adjacency of node %d differs: out %v, want %v; in %v, want %v",
				v, got.G.OutEdges(v), want.G.OutEdges(v), got.G.InEdges(v), want.G.InEdges(v))
		}
	}
	if got.NumReal != want.NumReal || got.TotalIdlePower() != want.TotalIdlePower() {
		return fmt.Sprintf("NumReal %d, idle floor %d; want %d, %d", got.NumReal, got.TotalIdlePower(), want.NumReal, want.TotalIdlePower())
	}
	if len(got.Order) != len(want.Order) {
		return fmt.Sprintf("%d order lists, want %d", len(got.Order), len(want.Order))
	}
	for p, tasks := range want.Order {
		if !slices.Equal(got.Order[p], tasks) {
			return fmt.Sprintf("order of proc %d is %v, want %v", p, got.Order[p], tasks)
		}
	}
	return ""
}

// mismatch describes the first index at which got and want differ, or
// returns "" when they are equal.
func mismatch[T comparable](got, want []T) string {
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return fmt.Sprintf("at %d: %v, want %v", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("in length: %d, want %d", len(got), len(want))
	}
	return ""
}

// TestBuildMatchesMapBuild holds Build to mapBuild on HEFT mappings of
// every workflow family over one to three zones, and on hand cases for
// each way an edge can be dropped or duplicated, for tied ready times on a
// link, for an instance without communications and for malformed
// mappings (which must fail with the same error). Each side builds on a
// fresh cluster of its own, so link ids are compared as first-use ids.
func TestBuildMatchesMapBuild(t *testing.T) {
	type buildCase struct {
		name      string
		d         *dag.DAG
		m         *Mapping
		cluster   func() *platform.Cluster
		malformed bool
	}
	var cases []buildCase
	for _, fam := range wfgen.Families() {
		for _, n := range []int{30, 150} {
			for seed := uint64(1); seed <= 3; seed++ {
				zones := 1 + int(seed%3)
				d, err := wfgen.Generate(fam, n, seed)
				if err != nil {
					t.Fatal(err)
				}
				h, err := heft.Schedule(d, platform.SmallZoned(seed, zones))
				if err != nil {
					t.Fatal(err)
				}
				cases = append(cases, buildCase{
					name:    fmt.Sprintf("%s/n=%d/seed=%d/zones=%d", fam, n, seed, zones),
					d:       d,
					m:       FromHEFT(h.Proc, h.Order, h.Finish),
					cluster: func() *platform.Cluster { return platform.SmallZoned(seed, zones) },
				})
			}
		}
	}

	graph := func(n int, edges ...[2]int) *dag.DAG {
		d := dag.New(n)
		for v := 0; v < n; v++ {
			d.SetWeight(v, int64(3+v))
		}
		for i, e := range edges {
			d.AddEdge(e[0], e[1], int64(1+i%4))
		}
		return d
	}
	hand := func(name string, d *dag.DAG, m *Mapping) {
		cases = append(cases, buildCase{name: name, d: d, m: m, cluster: tinyZonedCluster})
	}
	malformed := func(name string, d *dag.DAG, m *Mapping) {
		cases = append(cases, buildCase{name: name, d: d, m: m, cluster: tinyZonedCluster, malformed: true})
	}
	hand("duplicate same-processor edges", graph(3, [2]int{0, 1}, [2]int{1, 2}, [2]int{0, 1}),
		&Mapping{Proc: []int{0, 0, 0}, Order: [][]int{{0, 1, 2}, nil}, Finish: []int64{1, 2, 3}})
	hand("precedence edge equals an ordering edge", graph(3, [2]int{0, 2}, [2]int{1, 2}),
		&Mapping{Proc: []int{0, 0, 1}, Order: [][]int{{0, 1}, {2}}, Finish: []int64{1, 2, 9}})
	hand("duplicate cross-processor edges", graph(2, [2]int{0, 1}, [2]int{0, 1}),
		&Mapping{Proc: []int{0, 1}, Order: [][]int{{0}, {1}}, Finish: []int64{3, 9}})
	hand("equal ready times on one link", graph(4, [2]int{1, 3}, [2]int{0, 2}, [2]int{1, 2}, [2]int{0, 3}),
		&Mapping{Proc: []int{0, 0, 1, 1}, Order: [][]int{{0, 1}, {2, 3}}, Finish: []int64{5, 5, 20, 30}})
	hand("no communications", graph(4, [2]int{0, 1}, [2]int{0, 2}, [2]int{2, 3}),
		&Mapping{Proc: []int{1, 1, 1, 1}, Order: [][]int{nil, {0, 2, 1, 3}}, Finish: []int64{1, 2, 3, 4}})
	// Forty communications on one link, in edge order alternately ready at
	// 7 and at 3: more than an insertion sort handles, so the sort moves
	// them and only the edge index orders each tied half.
	var fan [][2]int
	wide := &Mapping{Proc: make([]int, 42), Order: [][]int{{0, 1}, nil}, Finish: make([]int64, 42)}
	wide.Finish[0], wide.Finish[1] = 7, 3
	for v := 2; v < 42; v++ {
		fan = append(fan, [2]int{v % 2, v})
		wide.Proc[v] = 1
		wide.Finish[v] = 100
		wide.Order[1] = append(wide.Order[1], v)
	}
	hand("forty tied communications on one link", graph(42, fan...), wide)

	malformed("short Proc", graph(2), &Mapping{Proc: []int{0}, Order: [][]int{{0}}, Finish: []int64{1}})
	malformed("short Finish", graph(2), &Mapping{Proc: []int{0, 0}, Order: [][]int{{0, 1}}, Finish: []int64{1}})
	malformed("invalid processor", graph(2), &Mapping{Proc: []int{0, 9}, Order: [][]int{{0}, {1}}, Finish: []int64{1, 1}})
	malformed("order contradicts precedence", graph(2, [2]int{0, 1}),
		&Mapping{Proc: []int{0, 0}, Order: [][]int{{1, 0}, nil}, Finish: []int64{2, 1}})
	malformed("node missing from the order", graph(3, [2]int{0, 1}),
		&Mapping{Proc: []int{0, 0, 1}, Order: [][]int{{0, 1}, nil}, Finish: []int64{1, 2, 1}})
	malformed("node in another processor's order", graph(2),
		&Mapping{Proc: []int{0, 1}, Order: [][]int{{0, 1}, nil}, Finish: []int64{1, 2}})
	malformed("node listed twice", graph(2),
		&Mapping{Proc: []int{0, 0}, Order: [][]int{{0, 1, 0, 1}, nil}, Finish: []int64{1, 2}})

	for _, c := range cases {
		want, wantErr := mapBuild(c.d, c.m, c.cluster())
		got, err := Build(c.d, c.m, c.cluster())
		if (wantErr != nil) != c.malformed {
			t.Fatalf("%s: mapBuild error %v", c.name, wantErr)
		}
		if wantErr != nil || err != nil {
			if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
				t.Errorf("%s: Build error %v, mapBuild error %v", c.name, err, wantErr)
			}
			continue
		}
		if diff := instanceDiff(got, want); diff != "" {
			t.Errorf("%s: %s", c.name, diff)
		}
		if order, _ := want.G.TopoOrder(); mismatch(got.Topo(), order) != "" {
			t.Errorf("%s: Topo differs %s", c.name, mismatch(got.Topo(), order))
		}
		zones := make([][]int, want.NumZones())
		for v := 0; v < want.N(); v++ {
			zones[want.ZoneOf(v)] = append(zones[want.ZoneOf(v)], v)
		}
		for z, nodes := range got.ZoneNodes() {
			if nodes == nil || !slices.Equal(nodes, zones[z]) {
				t.Errorf("%s: zone %d lists %v, want %v", c.name, z, nodes, zones[z])
			}
		}
		if len(got.ZoneNodes()) != len(zones) {
			t.Errorf("%s: %d zone lists, want %d", c.name, len(got.ZoneNodes()), len(zones))
		}
	}
}
