package schedule

import (
	"cmp"
	"slices"

	"repro/internal/ceg"
	"repro/internal/power"
)

// sweepNodes is the polynomial event sweep of Appendix A.1 over one grid
// zone: merge the start/end events of the zone's nodes with its profile's
// interval boundaries and call emit for every maximal subinterval
// [from, to) of constant power draw, where j is the profile interval index
// and totalPower = idle + Σ work of the active nodes. nodes == nil means
// all nodes (the one-zone set, whose profile covers the whole platform).
// Events at or before time 0 are applied up front (a valid schedule has
// none before 0, but be robust).
func sweepNodes(inst *ceg.Instance, s *Schedule, prof *power.Profile, idle int64, nodes []int, emit func(j int, from, to, totalPower int64)) {
	type event struct {
		t int64
		d int64 // work power delta
	}
	n := inst.N()
	if nodes != nil {
		n = len(nodes)
	}
	events := make([]event, 0, 2*n)
	for i := 0; i < n; i++ {
		v := i
		if nodes != nil {
			v = nodes[i]
		}
		_, work := inst.ProcPower(v)
		events = append(events, event{s.Start[v], work})
		events = append(events, event{s.Start[v] + inst.Dur[v], -work})
	}
	// Any order among equal times will do: the loops below apply all the
	// events of one instant before the next segment is emitted.
	slices.SortFunc(events, func(a, b event) int { return cmp.Compare(a.t, b.t) })

	var workPower int64
	ei := 0
	for ei < len(events) && events[ei].t <= 0 {
		workPower += events[ei].d
		ei++
	}
	cur := int64(0)
	for j, iv := range prof.Intervals {
		for cur < iv.End {
			next := iv.End
			if ei < len(events) && events[ei].t < next {
				next = events[ei].t
			}
			if next > cur {
				emit(j, cur, next, idle+workPower)
				cur = next
			}
			for ei < len(events) && events[ei].t == cur {
				workPower += events[ei].d
				ei++
			}
		}
	}
}

// CarbonCost computes the total carbon cost of the schedule under
// per-zone green power: Σ over zones z of Σ over the constant-power
// subintervals of z's event sweep of max(P_z − G_z, 0) · length.
func CarbonCost(inst *ceg.Instance, s *Schedule, zs *power.ZoneSet) int64 {
	var cost int64
	nodes := zoneNodes(inst, zs)
	for z, zone := range zs.Zones {
		prof := zone.Profile
		sweepNodes(inst, s, prof, zoneIdle(inst, zs, z), nodes[z], func(j int, from, to, totalPower int64) {
			if over := totalPower - prof.Intervals[j].Budget; over > 0 {
				cost += over * (to - from)
			}
		})
	}
	return cost
}

// CarbonCostBrute evaluates the cost time unit by time unit, exactly as
// the definition in Section 3 states it, zone by zone:
// CC = Σ_z Σ_t max(P_z,t − G_z,t, 0). It is pseudo-polynomial and exists
// as the ground-truth oracle for tests.
func CarbonCostBrute(inst *ceg.Instance, s *Schedule, zs *power.ZoneSet) int64 {
	var cost int64
	for z, zone := range zs.Zones {
		idle := zoneIdle(inst, zs, z)
		prof := zone.Profile
		for t := int64(0); t < prof.T(); t++ {
			var workPower int64
			for v := 0; v < inst.N(); v++ {
				if NodeZone(inst, zs, v) != z {
					continue
				}
				if s.Start[v] <= t && t < s.Start[v]+inst.Dur[v] {
					_, w := inst.ProcPower(v)
					workPower += w
				}
			}
			if over := idle + workPower - prof.BudgetAt(t); over > 0 {
				cost += over
			}
		}
	}
	return cost
}

// IntervalCost is the carbon accounting of one profile interval: how much
// energy the schedule draws in it, how much of that the green budget
// covers, and how much is brown (the interval's carbon-cost contribution).
type IntervalCost struct {
	Start  int64 `json:"start"`
	End    int64 `json:"end"`
	Budget int64 `json:"budget"` // green power budget per time unit
	Energy int64 `json:"energy"` // total energy drawn (idle + active work)
	Green  int64 `json:"green"`  // green energy consumed = Energy − Brown
	Brown  int64 `json:"brown"`  // brown energy = Σ max(P − G, 0) over the interval
}

// ZoneCost is the carbon accounting of one grid zone: its name, total
// brown energy, and the per-interval breakdown of its profile.
type ZoneCost struct {
	Zone      string         `json:"zone"`
	Cost      int64          `json:"cost"` // Σ Brown over the zone's intervals
	Intervals []IntervalCost `json:"intervals"`
}

// CostBreakdown evaluates the schedule per zone and per profile interval
// with the same event sweep as CarbonCost, so the per-zone Cost fields sum
// to CarbonCost(inst, s, zs) by construction.
func CostBreakdown(inst *ceg.Instance, s *Schedule, zs *power.ZoneSet) []ZoneCost {
	out := make([]ZoneCost, zs.NumZones())
	nodes := zoneNodes(inst, zs)
	for z, zone := range zs.Zones {
		prof := zone.Profile
		ivs := make([]IntervalCost, len(prof.Intervals))
		for j, iv := range prof.Intervals {
			ivs[j] = IntervalCost{Start: iv.Start, End: iv.End, Budget: iv.Budget}
		}
		sweepNodes(inst, s, prof, zoneIdle(inst, zs, z), nodes[z], func(j int, from, to, totalPower int64) {
			ivs[j].Energy += totalPower * (to - from)
			if over := totalPower - prof.Intervals[j].Budget; over > 0 {
				ivs[j].Brown += over * (to - from)
			}
		})
		var total int64
		for j := range ivs {
			ivs[j].Green = ivs[j].Energy - ivs[j].Brown
			total += ivs[j].Brown
		}
		out[z] = ZoneCost{Zone: zone.Name, Cost: total, Intervals: ivs}
	}
	return out
}

// GreenFloorCost returns the unavoidable carbon cost of keeping the
// platform idle over the whole horizon:
// Σ_z Σ_j max(idle_z − G_z,j, 0) · len_j. Any schedule's cost is at least
// this floor. With the paper's profile generation (budgets ≥ Σidle) the
// floor is zero.
func GreenFloorCost(inst *ceg.Instance, zs *power.ZoneSet) int64 {
	var cost int64
	for z, zone := range zs.Zones {
		idle := zoneIdle(inst, zs, z)
		for _, iv := range zone.Profile.Intervals {
			if over := idle - iv.Budget; over > 0 {
				cost += over * iv.Len()
			}
		}
	}
	return cost
}
