package schedule

import (
	"fmt"

	"repro/internal/ceg"
	"repro/internal/power"
)

// Per-zone evaluation: with geo-distributed capacity every grid zone has
// its own green power profile, the platform draw decomposes into one
// piecewise-constant function per zone, and the total carbon cost is the
// sum of the per-zone costs. A single-zone set evaluates every node
// against the one profile above the whole-platform idle floor — exactly
// the paper's semantics, through the same sweep code.

// CheckZones verifies that the zone set is usable with the instance: a
// single zone always is (the whole cluster shares it, whatever its zone
// layout); a multi-zone set must carry exactly one zone per cluster zone,
// index-matched.
func CheckZones(inst *ceg.Instance, zs *power.ZoneSet) error {
	if err := zs.Validate(); err != nil {
		return err
	}
	if !zs.Single() && zs.NumZones() != inst.NumZones() {
		return fmt.Errorf("schedule: %d power zones for a cluster with %d zones", zs.NumZones(), inst.NumZones())
	}
	return nil
}

// NodeZone returns the zone index node v is evaluated in: its processor's
// grid zone, collapsed to 0 when the set has a single zone (the paper's
// cluster-wide profile covers every processor regardless of layout).
func NodeZone(inst *ceg.Instance, zs *power.ZoneSet, v int) int {
	if zs.Single() {
		return 0
	}
	return inst.ZoneOf(v)
}

// zoneIdle returns the idle floor of zone z under the set: the
// instance-local per-zone floor, or the whole-platform floor for a
// single-zone set.
func zoneIdle(inst *ceg.Instance, zs *power.ZoneSet, z int) int64 {
	if zs.Single() {
		return inst.TotalIdlePower()
	}
	return inst.ZoneIdlePower(z)
}

// zoneNodes partitions the instance's nodes by evaluation zone. For a
// single-zone set it returns one nil entry (sweepNodes reads nil as "all
// nodes"); a multi-zone set has one zone per cluster zone, whose node
// lists the instance holds (non-nil: an empty zone sweeps no nodes, not
// all).
func zoneNodes(inst *ceg.Instance, zs *power.ZoneSet) [][]int {
	if zs.Single() {
		return [][]int{nil}
	}
	return inst.ZoneNodes()
}

// ZoneTimelines holds one power Timeline per grid zone and routes
// per-task queries — MoveGain, FirstImprovingMove, candidate starts — to
// the moving task's zone. Moving a task only perturbs its own zone's
// draw, so a move's gain is entirely contained in one timeline. The
// timelines keep levels only; the schedule's total is CarbonCost's.
type ZoneTimelines struct {
	inst *ceg.Instance
	zs   *power.ZoneSet
	tls  []*Timeline
}

// NewZoneTimelines builds the per-zone timelines of a schedule. A nil
// schedule yields empty timelines (only the idle floors draw power) for
// callers that add tasks incrementally (the exact branch-and-bound).
func NewZoneTimelines(inst *ceg.Instance, s *Schedule, zs *power.ZoneSet) *ZoneTimelines {
	if err := CheckZones(inst, zs); err != nil {
		panic(err)
	}
	m := &ZoneTimelines{inst: inst, zs: zs, tls: make([]*Timeline, zs.NumZones())}
	for z := range m.tls {
		m.tls[z] = newTimeline(zoneIdle(inst, zs, z), zs.Profile(z))
	}
	if s != nil {
		for v := 0; v < inst.N(); v++ {
			_, work := inst.ProcPower(v)
			m.For(v).Add(s.Start[v], s.Start[v]+inst.Dur[v], work)
		}
	}
	return m
}

// Zone returns zone z's timeline.
func (m *ZoneTimelines) Zone(z int) *Timeline { return m.tls[z] }

// For returns the timeline of node v's zone — the one every query or
// update about v must go through.
func (m *ZoneTimelines) For(v int) *Timeline {
	return m.tls[NodeZone(m.inst, m.zs, v)]
}

// Release hands the timelines' storage back for the next solve to reuse
// and zeroes m; any use of m or of a timeline it returned afterwards
// panics. Call it once the search is done with the timelines.
func (m *ZoneTimelines) Release() {
	for _, tl := range m.tls {
		tl.release()
	}
	*m = ZoneTimelines{}
}

// Compact merges equal-level segments in every zone's timeline.
func (m *ZoneTimelines) Compact() {
	for _, tl := range m.tls {
		tl.Compact()
	}
}
