package dag

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// diamond builds the classic 4-task diamond: 0 → {1,2} → 3.
func diamond() *DAG {
	d := New(4)
	d.AddEdge(0, 1, 5)
	d.AddEdge(0, 2, 6)
	d.AddEdge(1, 3, 7)
	d.AddEdge(2, 3, 8)
	return d
}

// randomDAG builds a random DAG with n vertices where each forward pair is
// connected with probability p.
func randomDAG(r *rng.RNG, n int, p float64) *DAG {
	d := New(n)
	for i := 0; i < n; i++ {
		d.SetWeight(i, r.IntRange(1, 20))
		for j := i + 1; j < n; j++ {
			if r.Float64() < p {
				d.AddEdge(i, j, r.IntRange(1, 5))
			}
		}
	}
	return d
}

func TestNewBasics(t *testing.T) {
	d := New(3)
	if d.N() != 3 || d.M() != 0 {
		t.Fatalf("New(3): N=%d M=%d, want 3, 0", d.N(), d.M())
	}
	for i, task := range d.Tasks {
		if task.Weight != 1 {
			t.Errorf("task %d default weight = %d, want 1", i, task.Weight)
		}
		if task.ID != i {
			t.Errorf("task %d has ID %d", i, task.ID)
		}
	}
}

func TestAddEdgeAdjacency(t *testing.T) {
	d := diamond()
	if got := d.Successors(0, nil); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("Successors(0) = %v, want [1 2]", got)
	}
	if got := d.Predecessors(3, nil); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("Predecessors(3) = %v, want [1 2]", got)
	}
	if d.InDegree(0) != 0 || d.OutDegree(0) != 2 {
		t.Errorf("degrees of 0: in=%d out=%d", d.InDegree(0), d.OutDegree(0))
	}
	if !d.HasEdge(0, 1) || d.HasEdge(1, 0) {
		t.Error("HasEdge wrong")
	}
}

func TestAddEdgeOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge out of range did not panic")
		}
	}()
	New(2).AddEdge(0, 5, 1)
}

func TestSourcesSinks(t *testing.T) {
	d := diamond()
	if s := d.Sources(); len(s) != 1 || s[0] != 0 {
		t.Errorf("Sources = %v, want [0]", s)
	}
	if s := d.Sinks(); len(s) != 1 || s[0] != 3 {
		t.Errorf("Sinks = %v, want [3]", s)
	}
}

func TestTopoOrderDiamond(t *testing.T) {
	d := diamond()
	order, err := d.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	if !d.IsTopoOrder(order) {
		t.Errorf("TopoOrder returned invalid order %v", order)
	}
	if order[0] != 0 || order[3] != 3 {
		t.Errorf("diamond order = %v, want 0 first, 3 last", order)
	}
}

func TestTopoOrderCycleDetection(t *testing.T) {
	d := New(3)
	d.AddEdge(0, 1, 0)
	d.AddEdge(1, 2, 0)
	d.AddEdge(2, 0, 0)
	if _, err := d.TopoOrder(); err == nil {
		t.Fatal("cycle not detected")
	} else if ec, ok := err.(*ErrCycle); !ok || ec.Remaining != 3 {
		t.Errorf("unexpected error %v", err)
	}
}

func TestIsTopoOrderRejectsBadOrders(t *testing.T) {
	d := diamond()
	cases := [][]int{
		{3, 1, 2, 0}, // reversed
		{0, 1, 2},    // short
		{0, 1, 1, 3}, // duplicate
		{0, 1, 2, 9}, // out of range
		{1, 0, 2, 3}, // violates 0→1
	}
	for _, c := range cases {
		if d.IsTopoOrder(c) {
			t.Errorf("IsTopoOrder(%v) = true, want false", c)
		}
	}
}

func TestTopoOrderProperty(t *testing.T) {
	r := rng.New(1)
	f := func(seed uint64) bool {
		rr := r.Derive(seed)
		d := randomDAG(rr, 2+rr.Intn(40), 0.2)
		order, err := d.TopoOrder()
		if err != nil {
			return false
		}
		return d.IsTopoOrder(order)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLevels(t *testing.T) {
	d := diamond()
	lv := d.Levels()
	want := []int{0, 1, 1, 2}
	for i := range want {
		if lv[i] != want[i] {
			t.Errorf("level[%d] = %d, want %d", i, lv[i], want[i])
		}
	}
}

func TestCriticalPathLength(t *testing.T) {
	d := diamond()
	d.SetWeight(0, 2)
	d.SetWeight(1, 3)
	d.SetWeight(2, 10)
	d.SetWeight(3, 1)
	if got := d.CriticalPathLength(); got != 13 {
		t.Errorf("CriticalPathLength = %d, want 13 (0→2→3)", got)
	}
}

func TestCriticalPathSingleTask(t *testing.T) {
	d := New(1)
	d.SetWeight(0, 42)
	if got := d.CriticalPathLength(); got != 42 {
		t.Errorf("single-task critical path = %d, want 42", got)
	}
}

func TestValidateGood(t *testing.T) {
	if err := diamond().Validate(); err != nil {
		t.Errorf("diamond should validate: %v", err)
	}
}

func TestValidateCatchesProblems(t *testing.T) {
	selfloop := New(2)
	selfloop.Edges = append(selfloop.Edges, Edge{From: 0, To: 0, Weight: 1})
	if err := selfloop.Validate(); err == nil {
		t.Error("self-loop not caught")
	}

	dup := New(2)
	dup.AddEdge(0, 1, 1)
	dup.AddEdge(0, 1, 2)
	if err := dup.Validate(); err == nil {
		t.Error("duplicate edge not caught")
	}

	badw := New(1)
	badw.SetWeight(0, 0)
	if err := badw.Validate(); err == nil {
		t.Error("zero task weight not caught")
	}

	negE := New(2)
	negE.Edges = append(negE.Edges, Edge{From: 0, To: 1, Weight: -1})
	if err := negE.Validate(); err == nil {
		t.Error("negative edge weight not caught")
	}
}

func TestReachable(t *testing.T) {
	d := diamond()
	if !d.Reachable(0, 3) {
		t.Error("0 should reach 3")
	}
	if d.Reachable(1, 2) {
		t.Error("1 should not reach 2")
	}
	if !d.Reachable(2, 2) {
		t.Error("a vertex reaches itself")
	}
}

func TestCloneIndependence(t *testing.T) {
	d := diamond()
	c := d.Clone()
	c.AddEdge(1, 2, 9)
	c.SetWeight(0, 99)
	if d.M() != 4 {
		t.Errorf("clone mutation leaked into original: M=%d", d.M())
	}
	if d.Tasks[0].Weight != 1 {
		t.Errorf("clone weight mutation leaked: %d", d.Tasks[0].Weight)
	}
}

func TestTotalWork(t *testing.T) {
	d := diamond()
	d.SetWeight(0, 2)
	d.SetWeight(1, 3)
	d.SetWeight(2, 4)
	d.SetWeight(3, 5)
	if got := d.TotalWork(); got != 14 {
		t.Errorf("TotalWork = %d, want 14", got)
	}
}

func TestDOTRoundTrip(t *testing.T) {
	d := diamond()
	d.SetName(2, "align \"special\"")
	d.SetWeight(1, 17)
	var buf bytes.Buffer
	if err := d.WriteDOT(&buf, "test"); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDOT(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != d.N() || got.M() != d.M() {
		t.Fatalf("round trip size mismatch: %d/%d vs %d/%d", got.N(), got.M(), d.N(), d.M())
	}
	for i := range d.Tasks {
		if got.Tasks[i].Weight != d.Tasks[i].Weight {
			t.Errorf("task %d weight %d != %d", i, got.Tasks[i].Weight, d.Tasks[i].Weight)
		}
		if got.Tasks[i].Name != d.Tasks[i].Name {
			t.Errorf("task %d name %q != %q", i, got.Tasks[i].Name, d.Tasks[i].Name)
		}
	}
	for _, e := range d.Edges {
		if !got.HasEdge(e.From, e.To) {
			t.Errorf("edge %d→%d lost in round trip", e.From, e.To)
		}
	}
}

func TestDOTRoundTripProperty(t *testing.T) {
	r := rng.New(5)
	f := func(seed uint64) bool {
		rr := r.Derive(seed)
		d := randomDAG(rr, 1+rr.Intn(30), 0.15)
		var buf bytes.Buffer
		if err := d.WriteDOT(&buf, "g"); err != nil {
			return false
		}
		got, err := ReadDOT(&buf)
		if err != nil {
			return false
		}
		if got.N() != d.N() || got.M() != d.M() {
			return false
		}
		for i := range d.Tasks {
			if got.Tasks[i].Weight != d.Tasks[i].Weight {
				return false
			}
		}
		ge := got.SortedEdgeList()
		de := d.SortedEdgeList()
		for i := range de {
			if ge[i] != de[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestReadDOTBareEdges(t *testing.T) {
	src := `digraph g {
	n0 -> n1;
	n1 -> n2
	}`
	d, err := ReadDOT(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if d.N() != 3 || d.M() != 2 {
		t.Fatalf("bare parse: N=%d M=%d, want 3, 2", d.N(), d.M())
	}
	if d.Edges[0].Weight != 1 {
		t.Errorf("bare edge default weight = %d, want 1", d.Edges[0].Weight)
	}
}

func TestReadDOTRejectsCycle(t *testing.T) {
	src := "n0 -> n1\nn1 -> n0\n"
	if _, err := ReadDOT(strings.NewReader(src)); err == nil {
		t.Error("cyclic DOT input not rejected")
	}
}

func TestSortedEdgeList(t *testing.T) {
	d := New(3)
	d.AddEdge(2, 1, 1) // inserted out of order on purpose
	d.AddEdge(0, 2, 1)
	d.AddEdge(0, 1, 1)
	es := d.SortedEdgeList()
	if es[0].From != 0 || es[0].To != 1 || es[2].From != 2 {
		t.Errorf("SortedEdgeList = %v not sorted", es)
	}
}

func BenchmarkTopoOrder1000(b *testing.B) {
	r := rng.New(3)
	d := randomDAG(r, 1000, 0.01)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.TopoOrder(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFromEdgesMatchesAddEdge builds random graphs (duplicate edges and
// isolated vertices included) both ways and requires the same tasks, edges
// and adjacency lists in the same order — then adds more edges to both
// with AddEdge and requires that again, so no vertex's carved list can
// have grown into its neighbour's.
func TestFromEdgesMatchesAddEdge(t *testing.T) {
	r := rng.New(7)
	for trial := 0; trial < 200; trial++ {
		n := 1 + int(r.IntRange(0, 30))
		var edges []Edge
		for k := int(r.IntRange(0, 3*int64(n))); k > 0; k-- {
			u := int(r.IntRange(0, int64(n-1)))
			v := int(r.IntRange(0, int64(n-1)))
			edges = append(edges, Edge{From: u, To: v, Weight: r.IntRange(0, 9)})
		}
		split := int(r.IntRange(0, int64(len(edges))))
		want := New(n)
		for v := range want.Tasks {
			want.Tasks[v].Weight = r.IntRange(1, 20)
		}
		for _, e := range edges[:split] {
			want.AddEdge(e.From, e.To, e.Weight)
		}
		got := FromEdges(slices.Clone(want.Tasks), slices.Clone(edges[:split]))
		if err := sameGraph(got, want); err != "" {
			t.Fatalf("trial %d, FromEdges of %d edges: %s", trial, split, err)
		}
		for _, e := range edges[split:] {
			want.AddEdge(e.From, e.To, e.Weight)
			got.AddEdge(e.From, e.To, e.Weight)
		}
		if err := sameGraph(got, want); err != "" {
			t.Fatalf("trial %d, after %d AddEdge calls: %s", trial, len(edges)-split, err)
		}
	}
}

func sameGraph(got, want *DAG) string {
	if !slices.Equal(got.Tasks, want.Tasks) || !slices.Equal(got.Edges, want.Edges) {
		return "tasks or edges differ"
	}
	for v := range want.Tasks {
		if !slices.Equal(got.OutEdges(v), want.OutEdges(v)) || !slices.Equal(got.InEdges(v), want.InEdges(v)) {
			return fmt.Sprintf("vertex %d: out %v, want %v; in %v, want %v",
				v, got.OutEdges(v), want.OutEdges(v), got.InEdges(v), want.InEdges(v))
		}
	}
	return ""
}

func TestFromEdgesOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromEdges with an endpoint out of range did not panic")
		}
	}()
	FromEdges(make([]Task, 2), []Edge{{From: 0, To: 2}})
}

// validateTwin is Validate as it was written before it walked the
// adjacency lists: duplicates are found with a map over the edge list.
func validateTwin(d *DAG) error {
	seen := make(map[[2]int]bool, len(d.Edges))
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
		key := [2]int{e.From, e.To}
		if seen[key] {
			return fmt.Errorf("dag: duplicate edge %d→%d", e.From, e.To)
		}
		seen[key] = true
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

// TestValidateMatchesTwin holds Validate to validateTwin on random edge
// lists with duplicates, self-loops, out-of-range endpoints, negative
// weights and cycles. Lists with every endpoint in range are built by
// FromEdges; the others by AddEdge, with each out-of-range edge appended
// to Edges by hand, since no constructor takes one.
func TestValidateMatchesTwin(t *testing.T) {
	r := rng.New(11)
	kinds := []string{"out of range", "self-loop", "negative weight", "duplicate", "non-positive", "cycle", "<nil>"}
	seen := make(map[string]bool)
	for trial := 0; trial < 5000; trial++ {
		n := 1 + int(r.IntRange(0, 7))
		tasks := make([]Task, n)
		for v := range tasks {
			tasks[v] = Task{ID: v, Weight: r.IntRange(0, 9)}
			if r.IntRange(0, 9) > 0 {
				tasks[v].Weight++ // mostly positive
			}
		}
		var edges []Edge
		inRange := true
		for k := int(r.IntRange(0, 3*int64(n))); k > 0; k-- {
			e := Edge{From: int(r.IntRange(0, int64(n-1))), To: int(r.IntRange(0, int64(n-1))), Weight: r.IntRange(0, 9)}
			switch r.IntRange(0, 19) {
			case 0:
				e.From = int(r.IntRange(-1, int64(n)))
			case 1:
				e.To = int(r.IntRange(-1, int64(n)))
			case 2:
				e.Weight = -1
			case 3:
				if len(edges) > 0 {
					e = edges[r.IntRange(0, int64(len(edges)-1))]
				}
			}
			inRange = inRange && e.From >= 0 && e.From < n && e.To >= 0 && e.To < n
			edges = append(edges, e)
		}
		var d *DAG
		if inRange {
			d = FromEdges(tasks, edges)
		} else {
			d = FromEdges(tasks, nil)
			for _, e := range edges {
				if e.From >= 0 && e.From < n && e.To >= 0 && e.To < n {
					d.AddEdge(e.From, e.To, e.Weight)
				} else {
					d.Edges = append(d.Edges, e)
				}
			}
		}
		got, want := d.Validate(), validateTwin(d)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d: Validate %v, twin %v on %v", trial, got, want, d.Edges)
		}
		for _, kind := range kinds {
			if strings.Contains(fmt.Sprint(want), kind) {
				seen[kind] = true
			}
		}
	}
	for _, kind := range kinds {
		if !seen[kind] {
			t.Errorf("no trial gave %q", kind)
		}
	}
}
