package schedule

import (
	"repro/internal/ceg"
	"repro/internal/power"
)

// CarbonCostBrute evaluates the cost time unit by time unit, exactly as
// the definition in Section 3 states it, zone by zone:
// CC = Σ_z Σ_t max(P_z,t − G_z,t, 0). It is pseudo-polynomial and is the
// ground-truth oracle the event sweep of CarbonCost is tested against.
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
