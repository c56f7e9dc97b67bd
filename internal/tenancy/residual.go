package tenancy

import (
	"fmt"
	"sort"

	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/scherr"
)

// The residual view: what the existing solve pipeline sees when it
// schedules a new workflow against a cluster that already carries
// commitments. The base supply is a per-zone forecast over one horizon,
// treated as periodic (a diurnal profile keeps meaning something at
// absolute time 10×T); the residual subtracts, per zone and per time
// unit, the work power the committed reservations draw. Green energy a
// tenant already spoke for is not green energy a new tenant can count on.

// SupplyWindow projects the periodic base supply onto the absolute window
// [from, from+T), returned as a zone set over relative time [0, T) with
// the same zone names. from must be >= 0 and T > 0; a window that crosses
// more than power.MaxIntervals base intervals is ErrInvalidRequest, since
// its cost grows with T.
func SupplyWindow(supply *power.ZoneSet, from, T int64) (*power.ZoneSet, error) {
	if from < 0 || T <= 0 {
		return nil, fmt.Errorf("tenancy: supply window [%d, %d+%d) invalid", from, from, T)
	}
	P := supply.T()
	zones := make([]power.Zone, supply.NumZones())
	for z := 0; z < supply.NumZones(); z++ {
		base := supply.Profile(z).Intervals
		var out []power.Interval
		pos := from % P
		idx := sort.Search(len(base), func(i int) bool { return base[i].End > pos })
		t := int64(0)
		for steps := 0; t < T; steps++ {
			if steps == power.MaxIntervals {
				return nil, fmt.Errorf("%w: tenancy: a %d-unit supply window crosses more than %d supply intervals",
					scherr.ErrInvalidRequest, T, power.MaxIntervals)
			}
			iv := base[idx]
			length := iv.End - pos
			if length > T-t {
				length = T - t
			}
			if n := len(out); n > 0 && out[n-1].Budget == iv.Budget {
				out[n-1].End += length
			} else {
				out = append(out, power.Interval{Start: t, End: t + length, Budget: iv.Budget})
			}
			t += length
			pos += length
			if pos >= iv.End {
				idx++
				if idx == len(base) {
					idx, pos = 0, 0
				}
			}
		}
		zones[z] = power.Zone{Name: supply.Zone(z).Name, Profile: &power.Profile{Intervals: out}}
	}
	return power.NewZoneSet(zones...)
}

// Residual returns the residual per-zone supply over the absolute window
// [from, from+T): the periodic base supply minus the work power drawn by
// every committed reservation overlapping the window, floored at zero.
// zoneOf maps a processor id to its grid zone (typically
// Cluster.ZoneOf); K is the zone count of the returned set (the
// cluster's, which must equal the supply's). A window starting before the
// compaction horizon is refused.
func (l *Ledger) Residual(supply *power.ZoneSet, zoneOf func(proc int) int, from, T int64) (*power.ZoneSet, error) {
	window, err := SupplyWindow(supply, from, T)
	if err != nil {
		return nil, err
	}
	K := window.NumZones()

	// Each zone's draw is the work power of the committed claims that
	// overlap the window, in time relative to it.
	draws := make([]schedule.Draw, K)
	l.mu.RLock()
	if err := l.beforeHorizon(from); err != nil {
		l.mu.RUnlock()
		return nil, err
	}
	for proc, rs := range l.procs {
		z := zoneOf(proc)
		if z < 0 || z >= K {
			l.mu.RUnlock()
			return nil, fmt.Errorf("tenancy: processor %d maps to zone %d outside [0, %d)", proc, z, K)
		}
		for _, r := range rs {
			if r.end > from && r.start < from+T {
				draws[z].Add(r.start-from, r.end-from, r.work)
			}
		}
	}
	l.mu.RUnlock()

	zones := make([]power.Zone, K)
	for z := range zones {
		base := window.Profile(z)
		var out []power.Interval
		draws[z].Walk(base, func(j int, a, b, demand int64) {
			budget := max(base.Intervals[j].Budget-demand, 0)
			if n := len(out); n > 0 && out[n-1].Budget == budget {
				out[n-1].End = b
			} else {
				out = append(out, power.Interval{Start: a, End: b, Budget: budget})
			}
		})
		zones[z] = power.Zone{Name: window.Zone(z).Name, Profile: &power.Profile{Intervals: out}}
	}
	return power.NewZoneSet(zones...)
}
