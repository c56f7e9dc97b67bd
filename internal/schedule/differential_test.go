package schedule

import (
	"testing"

	"repro/internal/ceg"
	"repro/internal/power"
	"repro/internal/rng"
)

// Differential property suite for the incremental timelines: random move
// sequences on randomized (DAG × cluster × zone-count) grids are replayed
// through the ZoneTimelines evaluator, and after every single move the
// probes (MoveGain, PlaceDelta, FirstImprovingMove) and the draw itself —
// priced by the unit-step twin drawCost — are checked against the
// unit-time brute-force oracle CarbonCostBrute and the event sweep. The suite runs once with the dense
// per-unit representation (the default for these horizons) and once with
// denseHorizonLimit lowered to force the sparse breakpoint representation,
// so both code paths are pinned move-for-move. Seeds are fixed: failures
// reproduce exactly, including under -race.

// checkDraw verifies that the draw tls holds prices, through the twin
// drawCost, to the sweep's and the brute oracle's cost of the schedule.
func checkDraw(t *testing.T, inst *ceg.Instance, s *Schedule, zs *power.ZoneSet, tls *ZoneTimelines, step int) {
	t.Helper()
	brute := CarbonCostBrute(inst, s, zs)
	if sweep := CarbonCost(inst, s, zs); sweep != brute {
		t.Fatalf("step %d: CarbonCost %d != brute %d", step, sweep, brute)
	}
	if got := zonesDrawCost(tls); got != brute {
		t.Fatalf("step %d: timeline draw costs %d != brute %d", step, got, brute)
	}
}

// bruteMoveGain computes a move's gain by full re-evaluation: the drop in
// CarbonCostBrute when s.Start[v] changes to cand (schedule restored
// before returning).
func bruteMoveGain(inst *ceg.Instance, s *Schedule, zs *power.ZoneSet, v int, cand int64) int64 {
	cur := s.Start[v]
	before := CarbonCostBrute(inst, s, zs)
	s.Start[v] = cand
	after := CarbonCostBrute(inst, s, zs)
	s.Start[v] = cur
	return before - after
}

func replayDifferential(t *testing.T, n int, seed uint64, zones, moves int) {
	t.Helper()
	inst, zs, s := zonedHEFTInstance(t, n, seed, zones)
	T := zs.T()
	r := rng.New(seed * 7919)

	tls := NewZoneTimelines(inst, s, zs)
	checkDraw(t, inst, s, zs, tls, -1)
	for m := 0; m < moves; m++ {
		v := r.Intn(inst.N())
		dur := inst.Dur[v]
		if dur > T {
			continue
		}
		cur := s.Start[v]
		cand := r.Int63n(T - dur + 1)
		_, work := inst.ProcPower(v)
		tl := tls.For(v)

		gain := tl.MoveGain(cur, cand, dur, work)
		if oracle := bruteMoveGain(inst, s, zs, v, cand); gain != oracle {
			t.Fatalf("seed %d move %d (task %d: %d→%d): MoveGain %d != brute gain %d",
				seed, m, v, cur, cand, gain, oracle)
		}

		// PlaceDelta is the exact solver's mutation-free probe: adding
		// the same load must change the draw's cost by exactly the probed
		// delta, and removing it must restore the cost.
		a := r.Int63n(T)
		span := T - a
		if span > 48 {
			span = 48
		}
		b := a + 1 + r.Int63n(span)
		p := 1 + r.Int63n(25)
		pd := tl.PlaceDelta(a, b, p)
		costBefore := drawCost(tl)
		tl.Add(a, b, p)
		if got := drawCost(tl) - costBefore; got != pd {
			t.Fatalf("seed %d move %d: PlaceDelta(%d,%d,%d)=%d but Add changed cost by %d",
				seed, m, a, b, p, pd, got)
		}
		tl.Remove(a, b, p)
		if drawCost(tl) != costBefore {
			t.Fatalf("seed %d move %d: Add/Remove did not restore the cost", seed, m)
		}

		// Every 8th step, pin FirstImprovingMove against the unit-step
		// brute oracle over a ±10 window around the current start.
		if m%8 == 0 {
			lo, hi := cur-10, cur+10
			if lo < 0 {
				lo = 0
			}
			if m := T - dur; hi > m {
				hi = m
			}
			fiCand, fiGain, fiOK := tl.FirstImprovingMove(cur, lo, hi, dur, work)
			var wantCand, wantGain int64
			wantOK := false
			for q := lo; q <= hi && !wantOK; q++ {
				if q == cur {
					continue
				}
				if g := bruteMoveGain(inst, s, zs, v, q); g > 0 {
					wantCand, wantGain, wantOK = q, g, true
				}
			}
			if fiOK != wantOK || (wantOK && (fiCand != wantCand || fiGain != wantGain)) {
				t.Fatalf("seed %d move %d task %d window [%d,%d]: FirstImprovingMove (%d,%d,%v) != brute (%d,%d,%v)",
					seed, m, v, lo, hi, fiCand, fiGain, fiOK, wantCand, wantGain, wantOK)
			}
		}

		before := zonesDrawCost(tls)
		tl.ApplyMove(cur, cand, dur, work)
		s.Start[v] = cand
		if got := before - zonesDrawCost(tls); got != gain {
			t.Fatalf("seed %d move %d: applied gain %d != predicted %d", seed, m, got, gain)
		}
		checkDraw(t, inst, s, zs, tls, m)
		if m%16 == 15 {
			tls.Compact()
			checkDraw(t, inst, s, zs, tls, m)
		}
	}
}

// TestDifferentialIncrementalZones replays randomized move sequences over
// a grid of workflow sizes, seeds, and zone counts (including the
// single-zone degenerate case), in both timeline representations.
func TestDifferentialIncrementalZones(t *testing.T) {
	for _, mode := range []string{"dense", "sparse"} { // these horizons are dense by default
		t.Run(mode, func(t *testing.T) {
			if mode == "sparse" {
				defer ForceSparseTimelines()()
			}
			for _, zones := range []int{1, 2, 3} {
				for seed := uint64(1); seed <= 3; seed++ {
					replayDifferential(t, 30+10*int(seed), seed, zones, 48)
				}
			}
		})
	}
}
