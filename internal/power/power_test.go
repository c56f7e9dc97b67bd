package power

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/scherr"
)

func mustProfile(t *testing.T, lengths, budgets []int64) *Profile {
	t.Helper()
	p, err := NewProfile(lengths, budgets)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewProfileLayout(t *testing.T) {
	p := mustProfile(t, []int64{5, 3, 2}, []int64{10, 0, 7})
	if p.T() != 10 {
		t.Errorf("T = %d, want 10", p.T())
	}
	if p.J() != 3 {
		t.Errorf("J = %d, want 3", p.J())
	}
	want := []Interval{{0, 5, 10}, {5, 8, 0}, {8, 10, 7}}
	for i, iv := range p.Intervals {
		if iv != want[i] {
			t.Errorf("interval %d = %+v, want %+v", i, iv, want[i])
		}
	}
	if err := p.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestNewProfileErrors(t *testing.T) {
	if _, err := NewProfile([]int64{1}, []int64{1, 2}); err == nil {
		t.Error("length mismatch not caught")
	}
	if _, err := NewProfile(nil, nil); err == nil {
		t.Error("empty profile not caught")
	}
	if _, err := NewProfile([]int64{0}, []int64{1}); err == nil {
		t.Error("zero-length interval not caught")
	}
	if _, err := NewProfile([]int64{1}, []int64{-1}); err == nil {
		t.Error("negative budget not caught")
	}
}

func TestIndexAtAndBudgetAt(t *testing.T) {
	p := mustProfile(t, []int64{5, 3, 2}, []int64{10, 0, 7})
	cases := []struct {
		t    int64
		idx  int
		want int64
	}{
		{0, 0, 10}, {4, 0, 10}, {5, 1, 0}, {7, 1, 0}, {8, 2, 7}, {9, 2, 7},
	}
	for _, c := range cases {
		if got := p.IndexAt(c.t); got != c.idx {
			t.Errorf("IndexAt(%d) = %d, want %d", c.t, got, c.idx)
		}
		if got := p.BudgetAt(c.t); got != c.want {
			t.Errorf("BudgetAt(%d) = %d, want %d", c.t, got, c.want)
		}
	}
}

func TestIndexAtPanicsOutside(t *testing.T) {
	p := mustProfile(t, []int64{5}, []int64{1})
	for _, bad := range []int64{-1, 5, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("IndexAt(%d) did not panic", bad)
				}
			}()
			p.IndexAt(bad)
		}()
	}
}

func TestBoundaries(t *testing.T) {
	p := mustProfile(t, []int64{5, 3, 2}, []int64{1, 2, 3})
	bs := p.Boundaries()
	want := []int64{0, 5, 8, 10}
	if len(bs) != len(want) {
		t.Fatalf("Boundaries = %v, want %v", bs, want)
	}
	for i := range want {
		if bs[i] != want[i] {
			t.Errorf("boundary %d = %d, want %d", i, bs[i], want[i])
		}
	}
}

func TestTotalGreenAndMaxBudget(t *testing.T) {
	p := mustProfile(t, []int64{5, 3, 2}, []int64{10, 0, 7})
	if got := p.TotalGreen(); got != 5*10+0+2*7 {
		t.Errorf("TotalGreen = %d, want 64", got)
	}
	if got := p.MaxBudget(); got != 10 {
		t.Errorf("MaxBudget = %d, want 10", got)
	}
}

func TestClipTruncateAndExtend(t *testing.T) {
	p := mustProfile(t, []int64{5, 5}, []int64{3, 9})
	short := p.Clip(7)
	if short.T() != 7 || short.J() != 2 {
		t.Errorf("Clip(7): T=%d J=%d, want 7, 2", short.T(), short.J())
	}
	if short.Intervals[1].Budget != 9 || short.Intervals[1].End != 7 {
		t.Errorf("Clip(7) second interval = %+v", short.Intervals[1])
	}
	long := p.Clip(15)
	if long.T() != 15 {
		t.Errorf("Clip(15): T=%d, want 15", long.T())
	}
	if got := long.BudgetAt(14); got != 9 {
		t.Errorf("extended budget = %d, want 9 (last interval's)", got)
	}
	if err := long.Validate(); err != nil {
		t.Errorf("extended profile invalid: %v", err)
	}
	// Exact clip at a boundary.
	exact := p.Clip(5)
	if exact.T() != 5 || exact.J() != 1 {
		t.Errorf("Clip(5): T=%d J=%d, want 5, 1", exact.T(), exact.J())
	}
}

func TestCloneIndependent(t *testing.T) {
	p := mustProfile(t, []int64{5}, []int64{3})
	c := p.Clone()
	c.Intervals[0].Budget = 99
	if p.Intervals[0].Budget != 3 {
		t.Error("Clone shares storage with original")
	}
}

func TestConstant(t *testing.T) {
	p := Constant(10, 5)
	if p.T() != 10 || p.J() != 1 || p.BudgetAt(3) != 5 {
		t.Errorf("Constant profile wrong: %+v", p.Intervals)
	}
}

func TestScenarioShapes(t *testing.T) {
	// S1 peaks at midday, low at boundaries.
	if S1.shape(0.5) < S1.shape(0.05) {
		t.Error("S1 should peak at midday")
	}
	// S2 is the opposite.
	if S2.shape(0.5) > S2.shape(0.05) {
		t.Error("S2 should trough at midday")
	}
	// S3 starts low.
	if S3.shape(0.01) > 0.1 {
		t.Error("S3 should start near zero")
	}
	// S4 is flat.
	if S4.shape(0.1) != S4.shape(0.9) {
		t.Error("S4 should be constant")
	}
	for _, sc := range Scenarios() {
		for _, x := range []float64{0, 0.25, 0.5, 0.75, 1} {
			v := sc.shape(x)
			if v < 0 || v > 1 {
				t.Errorf("%v.shape(%v) = %v outside [0,1]", sc, x, v)
			}
		}
	}
}

func TestScenarioString(t *testing.T) {
	want := []string{"S1", "S2", "S3", "S4"}
	for i, sc := range Scenarios() {
		if sc.String() != want[i] {
			t.Errorf("String() = %q, want %q", sc.String(), want[i])
		}
	}
}

func TestGenerateRespectsBounds(t *testing.T) {
	r := rng.New(42)
	for _, sc := range Scenarios() {
		p, err := Generate(sc, 1000, 24, 100, 500, r)
		if err != nil {
			t.Fatalf("%v: %v", sc, err)
		}
		if p.T() != 1000 {
			t.Errorf("%v: T = %d, want 1000", sc, p.T())
		}
		if p.J() != 24 {
			t.Errorf("%v: J = %d, want 24", sc, p.J())
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%v: %v", sc, err)
		}
		for j, iv := range p.Intervals {
			if iv.Budget < 100 || iv.Budget > 500 {
				t.Errorf("%v interval %d budget %d outside [100, 500]", sc, j, iv.Budget)
			}
		}
	}
}

func TestGenerateShortHorizon(t *testing.T) {
	r := rng.New(1)
	p, err := Generate(S1, 5, 24, 10, 20, r)
	if err != nil {
		t.Fatal(err)
	}
	if p.T() != 5 {
		t.Errorf("T = %d, want 5", p.T())
	}
	if p.J() > 5 {
		t.Errorf("J = %d, want <= 5 (interval length >= 1)", p.J())
	}
}

func TestGenerateErrors(t *testing.T) {
	r := rng.New(1)
	if _, err := Generate(S1, 0, 4, 1, 2, r); err == nil {
		t.Error("T=0 not rejected")
	}
	if _, err := Generate(S1, 10, 0, 1, 2, r); err == nil {
		t.Error("J=0 not rejected")
	}
	if _, err := Generate(S1, 10, 4, 5, 2, r); err == nil {
		t.Error("gmax < gmin not rejected")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(S3, 500, 24, 0, 100, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(S3, 500, 24, 0, 100, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	for j := range a.Intervals {
		if a.Intervals[j] != b.Intervals[j] {
			t.Fatalf("same seed produced different profiles at interval %d", j)
		}
	}
}

func TestGenerateS1ShapeVisible(t *testing.T) {
	// With wide bounds the midday budget should clearly exceed the edges.
	p, err := Generate(S1, 2400, 24, 0, 1000, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	edge := p.Intervals[0].Budget
	mid := p.Intervals[12].Budget
	if mid <= edge {
		t.Errorf("S1 midday budget %d not above edge budget %d", mid, edge)
	}
}

func TestPlatformBounds(t *testing.T) {
	gmin, gmax := PlatformBounds(1000, 500)
	if gmin != 1000 {
		t.Errorf("gmin = %d, want 1000", gmin)
	}
	if gmax != 1400 {
		t.Errorf("gmax = %d, want 1400 (idle + 80%% work)", gmax)
	}
}

func TestGenerateCoverageProperty(t *testing.T) {
	r := rng.New(11)
	f := func(seed uint64) bool {
		rr := r.Derive(seed)
		T := rr.IntRange(1, 2000)
		J := int(rr.IntRange(1, 48))
		gmin := rr.IntRange(0, 100)
		gmax := gmin + rr.IntRange(0, 400)
		sc := Scenarios()[rr.Intn(4)]
		p, err := Generate(sc, T, J, gmin, gmax, rr)
		if err != nil {
			return false
		}
		if p.T() != T {
			return false
		}
		return p.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestGenerateIntervalBound: Generate takes at most MaxIntervals
// intervals and refuses more as an invalid request, whatever the horizon.
func TestGenerateIntervalBound(t *testing.T) {
	p, err := Generate(S1, 1<<20, MaxIntervals, 10, 20, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if p.J() != MaxIntervals {
		t.Errorf("J = %d, want %d", p.J(), MaxIntervals)
	}
	for _, T := range []int64{24, 1 << 20} {
		if _, err := Generate(S1, T, MaxIntervals+1, 10, 20, rng.New(1)); !errors.Is(err, scherr.ErrInvalidRequest) {
			t.Errorf("T=%d, J=%d: %v, want ErrInvalidRequest", T, MaxIntervals+1, err)
		}
	}
}
