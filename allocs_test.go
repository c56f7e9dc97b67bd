package cawosched_test

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/core"
)

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// TestRunAllocBytesAdmitShape bounds the bytes one prebuilt core.Run
// allocates on the shape of an admit_churn_60 submit (admitShapeInstance):
// the answer and the small per-solve state, not the horizon-sized scratch
// of the greedy and the hill climber, which comes back from their pools.
// It reads runtime.MemStats.TotalAlloc over 50 runs after a warm-up, with
// the GC off while it measures so that no cycle empties the pools between
// runs. Under the race detector sync.Pool drops a quarter of what it is
// handed, so the bytes there say nothing and the test skips.
//
// Measured on linux/amd64 with go1.24: 30.0 kB per run. Before the
// scratch was pooled, when every run allocated its own, it measured
// 221.5 kB.
func TestRunAllocBytesAdmitShape(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	const ceilingKB = 40
	inst, zs := admitShapeInstance(t)
	opt, err := core.LookupVariant("pressWR-LS")
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		if _, _, err := core.Run(context.Background(), inst, zs, opt); err != nil {
			t.Fatal(err)
		}
	}
	run()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		run()
	}
	runtime.ReadMemStats(&after)
	kb := float64(after.TotalAlloc-before.TotalAlloc) / runs / 1024
	t.Logf("%.1f kB per run", kb)
	if kb > ceilingKB {
		t.Errorf("a prebuilt core.Run of the admission shape allocates %.1f kB, want at most %d kB", kb, ceilingKB)
	}
}
