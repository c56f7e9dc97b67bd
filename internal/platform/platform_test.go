package platform

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestTable1Spec(t *testing.T) {
	types := Table1()
	if len(types) != 6 {
		t.Fatalf("Table1 has %d types, want 6", len(types))
	}
	wantSpeed := []int64{4, 6, 8, 12, 16, 32}
	wantIdle := []int64{40, 60, 80, 120, 150, 200}
	wantWork := []int64{10, 30, 40, 50, 70, 100}
	for i, pt := range types {
		if pt.Speed != wantSpeed[i] || pt.Idle != wantIdle[i] || pt.Work != wantWork[i] {
			t.Errorf("type %s = %+v, want speed=%d idle=%d work=%d",
				pt.Name, pt, wantSpeed[i], wantIdle[i], wantWork[i])
		}
	}
	// Faster processors consume more power (the paper's stated trend).
	for i := 1; i < len(types); i++ {
		if types[i].Speed <= types[i-1].Speed {
			t.Errorf("speeds not increasing at %d", i)
		}
		if types[i].Idle+types[i].Work <= types[i-1].Idle+types[i-1].Work {
			t.Errorf("total power not increasing at %d", i)
		}
	}
}

func TestClusterSizes(t *testing.T) {
	if got := Small(1).NumCompute(); got != 72 {
		t.Errorf("Small cluster has %d compute nodes, want 72", got)
	}
	if got := Large(1).NumCompute(); got != 144 {
		t.Errorf("Large cluster has %d compute nodes, want 144", got)
	}
}

func TestProcIDsStable(t *testing.T) {
	c := Small(1)
	for i := 0; i < c.NumCompute(); i++ {
		if c.Proc(i).ID != i {
			t.Fatalf("proc %d has ID %d", i, c.Proc(i).ID)
		}
	}
	// First 12 are PT1, next 12 PT2, ...
	if c.Proc(0).Type.Name != "PT1" || c.Proc(12).Type.Name != "PT2" || c.Proc(71).Type.Name != "PT6" {
		t.Error("processor type layout unexpected")
	}
}

// TestLinkTableIsFixed pins the link table's contract: Link maps the
// ordered pairs of distinct compute processors one-to-one onto [P, P²),
// each link carries its endpoints, unit speed, its source's zone and the
// Section 6.1 power draw keyed by (linkSeed, src, dst), and the table is
// the same for equal construction arguments whatever Link was asked.
func TestLinkTableIsFixed(t *testing.T) {
	const seed = 7
	clusters := map[string]func() *Cluster{
		"small":  func() *Cluster { return Small(seed) },
		"large":  func() *Cluster { return Large(seed) },
		"custom": func() *Cluster { return NewZoned(Table1()[:3], []int{1, 1, 1}, []int{1, 0, 1}, seed) },
	}
	for name, build := range clusters {
		c := build()
		P := c.NumCompute()
		if c.NumProcs() != P*P {
			t.Errorf("%s: %d processors, want P² = %d", name, c.NumProcs(), P*P)
		}
		seen := make([]bool, P*P)
		for src := 0; src < P; src++ {
			for dst := 0; dst < P; dst++ {
				if src == dst {
					continue
				}
				id := c.Link(src, dst)
				if id < P || id >= P*P || seen[id] {
					t.Fatalf("%s: link %d→%d has id %d: outside [%d, %d) or taken", name, src, dst, id, P, P*P)
				}
				seen[id] = true
				h := rng.Mix(seed, uint64(src)<<32|uint64(uint32(dst)))
				want := Processor{
					ID:    id,
					Type:  ProcType{Speed: 1, Idle: int64(1 + h&1), Work: int64(1 + (h>>1)&1)},
					IsLnk: true,
					Src:   src,
					Dst:   dst,
					Zone:  c.Proc(src).Zone,
				}
				if got := *c.Proc(id); got != want {
					t.Errorf("%s: link %d→%d is %+v, want %+v", name, src, dst, got, want)
				}
			}
		}
		// Ask a second cluster for its links in the opposite order.
		other := build()
		for src := P - 1; src >= 0; src-- {
			for dst := P - 1; dst >= 0; dst-- {
				if src != dst {
					other.Link(src, dst)
				}
			}
		}
		if !reflect.DeepEqual(c, other) {
			t.Errorf("%s: two clusters built from the same arguments differ", name)
		}
	}
}

func TestLinkPowerDeterministic(t *testing.T) {
	a := Small(99)
	b := Small(99)
	// Ask in different orders; same (src,dst) must get same power.
	ia := a.Link(3, 5)
	b.Link(10, 11)
	ib := b.Link(3, 5)
	pa, pb := a.Proc(ia), b.Proc(ib)
	if pa.Type.Idle != pb.Type.Idle || pa.Type.Work != pb.Type.Work {
		t.Error("link power depends on the order links were asked for")
	}
}

func TestLinkPanics(t *testing.T) {
	c := Small(1)
	for _, tc := range [][2]int{{0, 0}, {-1, 1}, {0, 100}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Link(%d,%d) did not panic", tc[0], tc[1])
				}
			}()
			c.Link(tc[0], tc[1])
		}()
	}
}

func TestExecTime(t *testing.T) {
	c := Small(1)
	// PT1 (id 0) has speed 4: weight 10 → ceil(10/4) = 3.
	if got := c.ExecTime(10, 0); got != 3 {
		t.Errorf("ExecTime(10, PT1) = %d, want 3", got)
	}
	// PT6 (id 71) has speed 32: weight 10 → 1.
	if got := c.ExecTime(10, 71); got != 1 {
		t.Errorf("ExecTime(10, PT6) = %d, want 1", got)
	}
	// Minimum one time unit.
	if got := c.ExecTime(0, 0); got != 1 {
		t.Errorf("ExecTime(0) = %d, want 1", got)
	}
	// Exact division.
	if got := c.ExecTime(8, 0); got != 2 {
		t.Errorf("ExecTime(8, PT1) = %d, want 2", got)
	}
}

func TestExecTimeProperty(t *testing.T) {
	c := Small(1)
	f := func(w uint16, p uint8) bool {
		id := int(p) % c.NumCompute()
		weight := int64(w)
		got := c.ExecTime(weight, id)
		sp := c.Proc(id).Type.Speed
		if got < 1 {
			return false
		}
		// got is the smallest t with t*speed >= weight (and t >= 1).
		if got*sp < weight {
			return false
		}
		if got > 1 && (got-1)*sp >= weight {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCommTime(t *testing.T) {
	c := Small(1)
	if got := c.CommTime(5); got != 5 {
		t.Errorf("CommTime(5) = %d, want 5 at unit bandwidth", got)
	}
	if got := c.CommTime(0); got != 1 {
		t.Errorf("CommTime(0) = %d, want 1 (minimum)", got)
	}
}

func TestPowerAggregates(t *testing.T) {
	c := Small(1)
	// 12 * (40+60+80+120+150+200) = 12*650 = 7800
	if got := c.ComputeIdle(); got != 7800 {
		t.Errorf("ComputeIdle = %d, want 7800", got)
	}
	// 12 * (10+30+40+50+70+100) = 12*300 = 3600
	if got := c.ComputeWork(); got != 3600 {
		t.Errorf("ComputeWork = %d, want 3600", got)
	}
	if got := c.MaxTotalPower(); got != 300 {
		t.Errorf("MaxTotalPower = %d, want 300 (PT6)", got)
	}
	// A type no processor has does not count.
	if got := New(Table1(), []int{1, 1, 1, 1, 1, 0}, 1).MaxTotalPower(); got != 220 {
		t.Errorf("MaxTotalPower without PT6 = %d, want 220 (PT5)", got)
	}
}

func TestWeightFactor(t *testing.T) {
	c := Small(1)
	// PT6 node has wf = 1.
	if got := c.WeightFactor(71); got != 1.0 {
		t.Errorf("WeightFactor(PT6) = %v, want 1.0", got)
	}
	// PT1 node: (40+10)/300.
	if got := c.WeightFactor(0); got != 50.0/300.0 {
		t.Errorf("WeightFactor(PT1) = %v, want %v", got, 50.0/300.0)
	}
	l := c.Link(0, 1)
	wf := c.WeightFactor(l)
	if wf <= 0 || wf > 4.0/300.0 {
		t.Errorf("link WeightFactor = %v, want tiny positive", wf)
	}
}

func TestNewPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with mismatched lengths did not panic")
		}
	}()
	New(Table1(), []int{1}, 0)
}
