package cawosched_test

import (
	"context"
	"errors"
	"math"
	"testing"

	cawosched "repro"
	"repro/internal/power"
)

// TestDeadlineFactorOutOfRange: a deadline factor whose deadline does not
// fit an int64 — huge, +Inf or NaN — is an invalid request. (It used to
// overflow into the tightest deadline, T = D.)
func TestDeadlineFactorOutOfRange(t *testing.T) {
	wf, err := cawosched.GenerateWorkflow(cawosched.Methylseq, 60, 1)
	if err != nil {
		t.Fatal(err)
	}
	solver := cawosched.NewSolver(cawosched.SmallCluster(1))
	for _, f := range []float64{1e300, math.Inf(1), math.NaN()} {
		res, err := solver.Solve(context.Background(), cawosched.Request{
			Workflow: wf, Variant: "pressWR-LS", DeadlineFactor: f, Seed: 1,
		})
		if !errors.Is(err, cawosched.ErrInvalidRequest) {
			deadline := int64(-1)
			if res != nil {
				deadline = res.Deadline
			}
			t.Errorf("factor %v: deadline %d, err %v; want ErrInvalidRequest", f, deadline, err)
		}
	}
}

// TestDeadlineHorizon pins T = factor·D rounded, the default factor, and
// both refusals.
func TestDeadlineHorizon(t *testing.T) {
	for _, c := range []struct {
		D    int64
		f    float64
		want int64
	}{
		{118, 0, 236}, {118, 1, 118}, {118, 1.5, 177}, {3, 1.5, 5}, {118, 1e15, 118e15},
	} {
		if got, err := cawosched.DeadlineHorizon(c.D, c.f); err != nil || got != c.want {
			t.Errorf("DeadlineHorizon(%d, %v) = %d, %v; want %d", c.D, c.f, got, err, c.want)
		}
	}
	if _, err := cawosched.DeadlineHorizon(118, 0.5); !errors.Is(err, cawosched.ErrInfeasibleDeadline) {
		t.Errorf("factor 0.5: %v, want ErrInfeasibleDeadline", err)
	}
	if _, err := cawosched.DeadlineHorizon(118, 1e17); !errors.Is(err, cawosched.ErrInvalidRequest) {
		t.Errorf("factor 1e17 (T past MaxInt64): %v, want ErrInvalidRequest", err)
	}
}

// TestGeneratedIntervalsBounded: a generated supply takes at most
// power.MaxIntervals intervals; one more is an invalid request, refused
// before anything is allocated for it.
func TestGeneratedIntervalsBounded(t *testing.T) {
	wf, err := cawosched.GenerateWorkflow(cawosched.Methylseq, 60, 1)
	if err != nil {
		t.Fatal(err)
	}
	solver := cawosched.NewSolver(cawosched.SmallZonedCluster(1, 2))
	req := cawosched.Request{Workflow: wf, Variant: "slack", DeadlineFactor: 2000, Intervals: power.MaxIntervals + 1, Seed: 1}
	if _, err := solver.Solve(context.Background(), req); !errors.Is(err, cawosched.ErrInvalidRequest) {
		t.Errorf("%d intervals: %v, want ErrInvalidRequest", req.Intervals, err)
	}
	req.Intervals = power.MaxIntervals
	res, err := solver.Solve(context.Background(), req)
	if err != nil {
		t.Fatalf("%d intervals: %v", req.Intervals, err)
	}
	if j := res.Zones.Profile(0).J(); j != power.MaxIntervals {
		t.Errorf("generated %d intervals, want %d", j, power.MaxIntervals)
	}
}
