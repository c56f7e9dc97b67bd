package heft

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/dag"
	"repro/internal/platform"
	"repro/internal/rng"
	"repro/internal/wfgen"
)

// twoProcCluster builds a tiny cluster: one slow cheap node, one fast
// expensive node.
func twoProcCluster() *platform.Cluster {
	types := []platform.ProcType{
		{Name: "slow", Speed: 1, Idle: 1, Work: 1},
		{Name: "fast", Speed: 4, Idle: 4, Work: 4},
	}
	return platform.New(types, []int{1, 1}, 1)
}

func TestScheduleSingleTask(t *testing.T) {
	d := dag.New(1)
	d.SetWeight(0, 8)
	c := twoProcCluster()
	r, err := Schedule(d, c)
	if err != nil {
		t.Fatal(err)
	}
	// The fast processor (id 1, speed 4) finishes at 2; the slow at 8.
	if r.Proc[0] != 1 {
		t.Errorf("task mapped to proc %d, want fast proc 1", r.Proc[0])
	}
	if r.Makespan != 2 {
		t.Errorf("makespan = %d, want 2", r.Makespan)
	}
	if err := r.Validate(d, c); err != nil {
		t.Error(err)
	}
}

func TestScheduleChainRespectsPrecedence(t *testing.T) {
	d := dag.New(3)
	d.AddEdge(0, 1, 2)
	d.AddEdge(1, 2, 2)
	for i := 0; i < 3; i++ {
		d.SetWeight(i, 4)
	}
	c := twoProcCluster()
	r, err := Schedule(d, c)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(d, c); err != nil {
		t.Error(err)
	}
	if r.Start[1] < r.Finish[0] || r.Start[2] < r.Finish[1] {
		t.Errorf("chain order violated: %v / %v", r.Start, r.Finish)
	}
}

func TestScheduleEmptyWorkflow(t *testing.T) {
	if _, err := Schedule(dag.New(0), twoProcCluster()); err == nil {
		t.Error("empty workflow not rejected")
	}
}

func TestScheduleParallelTasksSpread(t *testing.T) {
	// Many independent equal tasks: HEFT must use both processors.
	d := dag.New(8)
	for i := 0; i < 8; i++ {
		d.SetWeight(i, 4)
	}
	c := twoProcCluster()
	r, err := Schedule(d, c)
	if err != nil {
		t.Fatal(err)
	}
	used := map[int]bool{}
	for _, p := range r.Proc {
		used[p] = true
	}
	if len(used) != 2 {
		t.Errorf("independent tasks all on one processor: %v", r.Proc)
	}
	if err := r.Validate(d, c); err != nil {
		t.Error(err)
	}
}

func TestInsertionPolicyFillsGaps(t *testing.T) {
	tl := []slot{{start: 0, end: 2, task: 0}, {start: 10, end: 12, task: 1}}
	if got := insertionStart(tl, 0, 3); got != 2 {
		t.Errorf("insertionStart = %d, want 2 (gap [2,10))", got)
	}
	if got := insertionStart(tl, 0, 9); got != 12 {
		t.Errorf("insertionStart dur=9 = %d, want 12 (after everything)", got)
	}
	if got := insertionStart(tl, 3, 3); got != 3 {
		t.Errorf("insertionStart ready=3 = %d, want 3", got)
	}
	if got := insertionStart(nil, 5, 1); got != 5 {
		t.Errorf("insertionStart empty = %d, want 5", got)
	}
}

func TestInsertSlotKeepsOrder(t *testing.T) {
	var tl []slot
	for _, s := range []slot{{5, 6, 0}, {1, 2, 1}, {3, 4, 2}} {
		tl = insertSlot(tl, s)
	}
	for i := 1; i < len(tl); i++ {
		if tl[i-1].start > tl[i].start {
			t.Fatalf("timeline out of order: %+v", tl)
		}
	}
}

func TestOrderMatchesStartTimes(t *testing.T) {
	d, err := wfgen.Generate(wfgen.Eager, 150, 3)
	if err != nil {
		t.Fatal(err)
	}
	c := platform.Small(1)
	r, err := Schedule(d, c)
	if err != nil {
		t.Fatal(err)
	}
	for p, tasks := range r.Order {
		for i := 1; i < len(tasks); i++ {
			if r.Start[tasks[i-1]] > r.Start[tasks[i]] {
				t.Fatalf("proc %d order not by start time", p)
			}
		}
	}
}

func TestMakespanLowerBound(t *testing.T) {
	// Makespan can never beat the critical path executed at max speed.
	d, err := wfgen.Generate(wfgen.Methylseq, 200, 5)
	if err != nil {
		t.Fatal(err)
	}
	c := platform.Small(1)
	r, err := Schedule(d, c)
	if err != nil {
		t.Fatal(err)
	}
	// Cheap sanity bound: total work / total speed ≤ makespan.
	var totalSpeed int64
	for p := 0; p < c.NumCompute(); p++ {
		totalSpeed += c.Proc(p).Type.Speed
	}
	lb := d.TotalWork() / totalSpeed
	if r.Makespan < lb {
		t.Errorf("makespan %d below aggregate-speed bound %d", r.Makespan, lb)
	}
}

func TestScheduleWorkflowsValidProperty(t *testing.T) {
	f := func(seed uint64, famRaw uint8, sizeRaw uint16) bool {
		fam := wfgen.Families()[int(famRaw)%4]
		n := 10 + int(sizeRaw%400)
		d, err := wfgen.Generate(fam, n, seed)
		if err != nil {
			return false
		}
		c := platform.Small(seed)
		r, err := Schedule(d, c)
		if err != nil {
			return false
		}
		return r.Validate(d, c) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestHeterogeneityPreference(t *testing.T) {
	// A single heavy chain should gravitate to the fastest processors
	// (HEFT minimizes EFT, ignoring power).
	d := dag.New(4)
	d.AddEdge(0, 1, 1)
	d.AddEdge(1, 2, 1)
	d.AddEdge(2, 3, 1)
	for i := range d.Tasks {
		d.SetWeight(i, 320)
	}
	c := platform.Small(1)
	r, err := Schedule(d, c)
	if err != nil {
		t.Fatal(err)
	}
	for v, p := range r.Proc {
		if c.Proc(p).Type.Name != "PT6" {
			t.Errorf("task %d on %s, want PT6 (fastest wins a chain)", v, c.Proc(p).Type.Name)
		}
	}
}

func TestDeterministicSchedule(t *testing.T) {
	d, _ := wfgen.Generate(wfgen.Atacseq, 120, 9)
	c1 := platform.Small(2)
	c2 := platform.Small(2)
	r1, err1 := Schedule(d, c1)
	r2, err2 := Schedule(d, c2)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	for v := range r1.Proc {
		if r1.Proc[v] != r2.Proc[v] || r1.Start[v] != r2.Start[v] {
			t.Fatalf("HEFT not deterministic at task %d", v)
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	d, _ := wfgen.Generate(wfgen.Bacass, 57, 3)
	c := platform.Small(1)
	r, err := Schedule(d, c)
	if err != nil {
		t.Fatal(err)
	}
	r.Start[0] = -5
	r.Finish[0] = r.Start[0] + c.ExecTime(d.Tasks[0].Weight, r.Proc[0])
	if err := r.Validate(d, c); err == nil {
		t.Error("negative start not caught")
	}
}

// TestValidateChecksOrder corrupts only Order of a legal three-task
// result: every task must be listed exactly once, under the processor it
// is mapped to, in start order.
func TestValidateChecksOrder(t *testing.T) {
	d := dag.New(3)
	for v := 0; v < 3; v++ {
		d.SetWeight(v, 4)
	}
	c := platform.New([]platform.ProcType{{Name: "a", Speed: 1, Idle: 1, Work: 1}}, []int{3}, 1)
	legal := func() *Result {
		return &Result{
			Proc:     []int{0, 1, 1},
			Start:    []int64{0, 0, 4},
			Finish:   []int64{4, 4, 8},
			Order:    [][]int{{0}, {1, 2}, {}},
			Makespan: 8,
		}
	}
	if err := legal().Validate(d, c); err != nil {
		t.Fatalf("legal result rejected: %v", err)
	}
	for _, tc := range []struct {
		name  string
		order [][]int
	}{
		{"task 0 omitted", [][]int{{}, {1, 2}, {}}},
		{"task 2 under another processor", [][]int{{0}, {1}, {2}}},
		{"both", [][]int{{}, {1}, {2}}},
		{"task 1 listed twice", [][]int{{0, 1}, {1, 2}, {}}},
		{"out of start order", [][]int{{0}, {2, 1}, {}}},
		{"processor missing", [][]int{{0}, {1, 2}}},
	} {
		r := legal()
		r.Order = tc.order
		if err := r.Validate(d, c); err == nil {
			t.Errorf("%s: order %v accepted", tc.name, tc.order)
		}
	}
}

// textbookListSchedule is the list scheduler as the HEFT paper states it
// and as this package first had it: for every task, every processor walks
// the task's predecessors for its ready time, divides the weight by its own
// speed, and scans its timeline from the front. ListSchedule must place
// every task exactly where this does.
func textbookListSchedule(d *dag.DAG, c *platform.Cluster, score Score) *Result {
	n, P := d.N(), c.NumCompute()
	wbar := make([]float64, n)
	for v := 0; v < n; v++ {
		var sum int64
		for p := 0; p < P; p++ {
			sum += c.ExecTime(d.Tasks[v].Weight, p)
		}
		wbar[v] = float64(sum) / float64(P)
	}
	order, err := d.TopoOrder()
	if err != nil {
		panic(err)
	}
	rank := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		v := order[i]
		var best float64
		for _, ei := range d.OutEdges(v) {
			e := d.Edges[ei]
			if r := float64(c.CommTime(e.Weight)) + rank[e.To]; r > best {
				best = r
			}
		}
		rank[v] = wbar[v] + best
	}
	prio := make([]int, n)
	for i := range prio {
		prio[i] = i
	}
	sort.SliceStable(prio, func(i, j int) bool {
		if rank[prio[i]] != rank[prio[j]] {
			return rank[prio[i]] > rank[prio[j]]
		}
		return prio[i] < prio[j]
	})

	res := &Result{Proc: make([]int, n), Start: make([]int64, n), Finish: make([]int64, n), Order: make([][]int, P)}
	timeline := make([][]slot, P)
	for _, v := range prio {
		bestProc := -1
		var bestStart, bestFinish int64
		var bestScore float64
		for p := 0; p < P; p++ {
			ready := int64(0)
			for _, ei := range d.InEdges(v) {
				e := d.Edges[ei]
				arr := res.Finish[e.From]
				if res.Proc[e.From] != p {
					arr += c.CommTime(e.Weight)
				}
				if arr > ready {
					ready = arr
				}
			}
			dur := c.ExecTime(d.Tasks[v].Weight, p)
			start := ready
			for _, s := range timeline[p] {
				if s.end <= start {
					continue
				}
				if s.start >= start+dur {
					break
				}
				start = s.end
			}
			finish := start + dur
			sc := float64(finish)
			if score != nil {
				sc = score(p, start, finish, dur)
			}
			if bestProc == -1 || sc < bestScore || (sc == bestScore && finish < bestFinish) {
				bestProc, bestStart, bestFinish, bestScore = p, start, finish, sc
			}
		}
		res.Proc[v], res.Start[v], res.Finish[v] = bestProc, bestStart, bestFinish
		timeline[bestProc] = insertSlot(timeline[bestProc], slot{bestStart, bestFinish, v})
		if bestFinish > res.Makespan {
			res.Makespan = bestFinish
		}
	}
	for p := range timeline {
		for _, s := range timeline[p] {
			res.Order[p] = append(res.Order[p], s.task)
		}
	}
	return res
}

// energyScore is a stand-in for greenheft's scored policies: it prefers
// frugal processors over early finishes, so its schedules leave gaps and
// collide on score far more often than EFT's do.
func energyScore(c *platform.Cluster) Score {
	return func(p int, start, finish, dur int64) float64 {
		return float64(dur * (c.Proc(p).Type.Idle + c.Proc(p).Type.Work))
	}
}

func checkAgainstTextbook(t *testing.T, name string, d *dag.DAG, c *platform.Cluster) {
	t.Helper()
	for scoreName, score := range map[string]Score{"eft": nil, "energy": energyScore(c)} {
		got, err := ListSchedule(d, c, score)
		if err != nil {
			t.Fatalf("%s/%s: %v", name, scoreName, err)
		}
		want := textbookListSchedule(d, c, score)
		if !reflect.DeepEqual(got, want) {
			for v := range want.Proc {
				if got.Proc[v] != want.Proc[v] || got.Start[v] != want.Start[v] || got.Finish[v] != want.Finish[v] {
					t.Fatalf("%s/%s: task %d on proc %d over [%d, %d), textbook has proc %d over [%d, %d)", name, scoreName,
						v, got.Proc[v], got.Start[v], got.Finish[v], want.Proc[v], want.Start[v], want.Finish[v])
				}
			}
			t.Fatalf("%s/%s: same placements, different Order or Makespan", name, scoreName)
		}
	}
}

func TestListScheduleMatchesTextbook(t *testing.T) {
	for fi, fam := range wfgen.Families() {
		d, err := wfgen.Generate(fam, 120+40*fi, uint64(fi+1))
		if err != nil {
			t.Fatal(err)
		}
		for name, c := range map[string]*platform.Cluster{
			"72":         platform.Small(1),
			"144":        platform.Large(1),
			"72x3zones":  platform.SmallZoned(1, 3),
			"144x3zones": platform.LargeZoned(1, 3),
		} {
			checkAgainstTextbook(t, fmt.Sprint(fam, "/", name), d, c)
		}
	}
}

// TestListScheduleMatchesTextbookRandom draws what the generated families
// do not have: arbitrary fan-in, edges heavier than tasks (so co-location
// decides the ready time), weights below the speeds (durations clamp to
// one unit) and clusters whose processors repeat speeds out of order.
func TestListScheduleMatchesTextbookRandom(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(40)
		d := dag.New(n)
		for v := 0; v < n; v++ {
			d.SetWeight(v, r.IntRange(1, 60))
			for u := 0; u < v; u++ {
				if r.Intn(4) == 0 {
					d.AddEdge(u, v, r.IntRange(0, 30))
				}
			}
		}
		var types []platform.ProcType
		var counts []int
		for i, k := 0, 1+r.Intn(5); i < k; i++ {
			types = append(types, platform.ProcType{Name: fmt.Sprint("T", i), Speed: r.IntRange(1, 4), Idle: r.IntRange(1, 9), Work: r.IntRange(1, 9)})
			counts = append(counts, 1+r.Intn(3))
		}
		checkAgainstTextbook(t, fmt.Sprint("seed ", seed), d, platform.New(types, counts, seed))
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func BenchmarkHEFT1000Small(b *testing.B) {
	d, err := wfgen.Generate(wfgen.Atacseq, 1000, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := platform.Small(1)
		if _, err := Schedule(d, c); err != nil {
			b.Fatal(err)
		}
	}
}
