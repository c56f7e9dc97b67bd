package ceg

import (
	"fmt"
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
