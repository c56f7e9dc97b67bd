package tenancy

import (
	"sync/atomic"
	"time"
)

// Clock supplies the current model time. The scheduler's time axis is the
// same discrete unit axis every schedule and power profile uses; the clock
// decides what "now" means on it. Production uses a WallClock that maps
// elapsed wall time onto units; tests and simulations inject a SimClock so
// every admission decision and rolling-horizon pass happens at an exact,
// reproducible instant.
//
// Model time must not run backwards. The Manager drops from its ledger
// the work that ended before the last now it saw, so a state transition
// at an earlier time fails rather than price a window without that work.
type Clock interface {
	// Now returns the current model time in schedule time units. It must
	// be monotonically non-decreasing.
	Now() int64
}

// SimClock is a manually advanced clock for tests and arrival simulations.
// The zero value starts at time 0. It is safe for concurrent use.
type SimClock struct {
	now atomic.Int64
}

// NewSimClock returns a simulated clock starting at t.
func NewSimClock(t int64) *SimClock {
	c := &SimClock{}
	c.now.Store(t)
	return c
}

// Now returns the current simulated time.
func (c *SimClock) Now() int64 { return c.now.Load() }

// Advance moves the clock forward by d units and returns the new time.
// Negative d panics: model time never runs backwards.
func (c *SimClock) Advance(d int64) int64 {
	if d < 0 {
		panic("tenancy: SimClock.Advance with negative delta")
	}
	return c.now.Add(d)
}

// Set jumps the clock to t. It panics when t would move time backwards.
func (c *SimClock) Set(t int64) {
	for {
		cur := c.now.Load()
		if t < cur {
			panic("tenancy: SimClock.Set would move time backwards")
		}
		if c.now.CompareAndSwap(cur, t) {
			return
		}
	}
}

// WallClock maps wall-clock time onto model time units: Now() is the
// number of whole Units elapsed since Epoch. A schedd instance created at
// startup with Unit = 100ms makes one schedule time unit mean 100ms of
// real time for every tenant it serves.
type WallClock struct {
	Epoch time.Time
	Unit  time.Duration // wall duration of one model time unit (> 0)
}

// NewWallClock returns a wall clock whose model time 0 is now.
func NewWallClock(unit time.Duration) *WallClock {
	if unit <= 0 {
		unit = 100 * time.Millisecond
	}
	return &WallClock{Epoch: time.Now(), Unit: unit}
}

// Now returns the elapsed whole units since Epoch (never negative).
func (c *WallClock) Now() int64 {
	d := time.Since(c.Epoch)
	if d < 0 {
		return 0
	}
	return int64(d / c.Unit)
}
