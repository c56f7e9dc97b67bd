package cawosched

// SetTestLeaderGate installs a hook that runs on a coalesced solve's
// leader goroutine right after it wins the flight election and before it
// consults the tier or computes — the lever the coalescing tests use to
// hold a leader in flight while followers pile up. Tests only.
func (s *Solver) SetTestLeaderGate(gate func()) { s.testLeaderGate = gate }

// SetTestBodyHash replaces the body index's hash, so that a test can force
// different bodies onto one index key. Tests only.
func (s *Solver) SetTestBodyHash(hash func([]byte) uint64) { s.testBodyHash = hash }
