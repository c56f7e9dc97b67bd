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

// drawCost is the unit-step twin of a timeline's draw: Σ over every time
// unit x < T of max(idle + level(x) − G(x), 0), with the level read
// straight from the dense per-unit array or the sparse segments and the
// budget from the profile. The timeline keeps no cost of its own; the
// tests price its draw with this and hold it to CarbonCostBrute.
func drawCost(tl *Timeline) int64 {
	var cost int64
	i := 0 // sparse segment holding x
	for x := int64(0); x < tl.prof.T(); x++ {
		var level int64
		if tl.dense {
			level = tl.lvl[x]
		} else {
			for i+1 < len(tl.t) && tl.t[i+1] <= x {
				i++
			}
			level = tl.w[i]
		}
		if over := tl.idle + level - tl.prof.BudgetAt(x); over > 0 {
			cost += over
		}
	}
	return cost
}

// zonesDrawCost is drawCost summed over every zone's timeline.
func zonesDrawCost(m *ZoneTimelines) int64 {
	var cost int64
	for _, tl := range m.tls {
		cost += drawCost(tl)
	}
	return cost
}
