package schedule

import (
	"repro/internal/ceg"
	"repro/internal/power"
)

// CarbonCost computes the total carbon cost of the schedule under
// per-zone green power: Σ over zones z of Σ over the constant-power runs
// of z's draw of max(P_z − G_z, 0) · length.
func CarbonCost(inst *ceg.Instance, s *Schedule, zs *power.ZoneSet) int64 {
	var cost int64
	d := drawPool.Get().(*Draw)
	defer drawPool.Put(d)
	nodes := zoneNodes(inst, zs)
	for z, zone := range zs.Zones {
		prof, idle := zone.Profile, zoneIdle(inst, zs, z)
		d.loadNodes(inst, s, nodes[z])
		d.Walk(prof, func(j int, from, to, level int64) {
			if over := idle + level - prof.Intervals[j].Budget; over > 0 {
				cost += over * (to - from)
			}
		})
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
// with the same walk of each zone's draw as CarbonCost, so the per-zone
// Cost fields sum to CarbonCost(inst, s, zs) by construction.
func CostBreakdown(inst *ceg.Instance, s *Schedule, zs *power.ZoneSet) []ZoneCost {
	out := make([]ZoneCost, zs.NumZones())
	d := drawPool.Get().(*Draw)
	defer drawPool.Put(d)
	nodes := zoneNodes(inst, zs)
	for z, zone := range zs.Zones {
		prof, idle := zone.Profile, zoneIdle(inst, zs, z)
		ivs := make([]IntervalCost, len(prof.Intervals))
		for j, iv := range prof.Intervals {
			ivs[j] = IntervalCost{Start: iv.Start, End: iv.End, Budget: iv.Budget}
		}
		d.loadNodes(inst, s, nodes[z])
		d.Walk(prof, func(j int, from, to, level int64) {
			ivs[j].Energy += (idle + level) * (to - from)
			if over := idle + level - ivs[j].Budget; over > 0 {
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
