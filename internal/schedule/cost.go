package schedule

import (
	"cmp"
	"math/bits"
	"slices"

	"repro/internal/ceg"
	"repro/internal/power"
)

// sweepNodes is the polynomial event sweep of Appendix A.1 over one grid
// zone: merge the start/end events of the zone's nodes with its profile's
// interval boundaries and call emit for consecutive subintervals [from, to)
// of constant power draw that tile [0, T), where j is the profile interval
// index and totalPower = idle + Σ work of the active nodes. nodes == nil
// means all nodes (the one-zone set, whose profile covers the whole
// platform). Events at or before time 0 are applied up front (a valid
// schedule has none before 0, but be robust); events at or after T change
// nothing that is emitted.
//
// The events are held in whichever of two representations suits the zone.
// When the horizon is short against the event count (the paper's
// workloads: a thousand nodes over a few hundred time units) they are
// counted into a difference array over [0, T), which needs no sort; when
// it is long (a 60-task workflow under a deadline factor of 30) the array
// would be mostly zeros to clear and scan, and a sorted event list is
// cheaper. The rule is at most sixteen slots per node: on HEFT schedules of
// 50 to 900 nodes a zone, counting is 1.4–2.7× faster than sorting there,
// the two meet near thirty-two, and BenchmarkCarbonCostZones has a case on
// each side. Both give the same sums: they differ only in where a run of
// constant power is cut, and emit's callers add up power × length.
func sweepNodes(inst *ceg.Instance, s *Schedule, prof *power.Profile, idle int64, nodes []int, emit func(j int, from, to, totalPower int64)) {
	if countedSweep(inst, prof, nodes) {
		sweepCounted(inst, s, prof, idle, nodes, emit)
	} else {
		sweepSorted(inst, s, prof, idle, nodes, emit)
	}
}

const sweepSlotsPerNode = 16

// countedSweep reports whether sweepNodes' rule picks the difference
// array for a zone's sweep.
func countedSweep(inst *ceg.Instance, prof *power.Profile, nodes []int) bool {
	return prof.T() <= sweepSlotsPerNode*int64(sweptCount(inst, nodes))
}

// sweptCount and sweptNode enumerate the nodes of a sweep: the listed
// ones, or every node of the instance when the list is nil.
func sweptCount(inst *ceg.Instance, nodes []int) int {
	if nodes != nil {
		return len(nodes)
	}
	return inst.N()
}

func sweptNode(nodes []int, i int) int {
	if nodes != nil {
		return nodes[i]
	}
	return i
}

// sweepCounted sweeps over a difference array: delta[t] is the net change
// of work power at time t, for t in [0, T).
func sweepCounted(inst *ceg.Instance, s *Schedule, prof *power.Profile, idle int64, nodes []int, emit func(j int, from, to, totalPower int64)) {
	T := prof.T()
	delta := make([]int64, T)
	for i, n := 0, sweptCount(inst, nodes); i < n; i++ {
		v := sweptNode(nodes, i)
		_, work := inst.ProcPower(v)
		if t := s.Start[v]; t < T {
			delta[max(t, 0)] += work
		}
		if t := s.Start[v] + inst.Dur[v]; t < T {
			delta[max(t, 0)] -= work
		}
	}
	workPower := delta[0]
	cur := int64(0)
	for j, iv := range prof.Intervals {
		for t := cur + 1; t < iv.End; t++ {
			if delta[t] != 0 {
				emit(j, cur, t, idle+workPower)
				workPower += delta[t]
				cur = t
			}
		}
		emit(j, cur, iv.End, idle+workPower)
		if cur = iv.End; cur < T {
			workPower += delta[cur]
		}
	}
}

// sweepSorted sweeps over a sorted event list: packed integer keys
// (eventKeys), or, where those could overflow, events sorted by a
// comparator (sweepSortedFunc).
func sweepSorted(inst *ceg.Instance, s *Schedule, prof *power.Profile, idle int64, nodes []int, emit func(j int, from, to, totalPower int64)) {
	ev, ok := eventKeys(inst, s, prof.T(), nodes)
	if !ok {
		sweepSortedFunc(inst, s, prof, idle, nodes, emit)
		return
	}
	workPower := ev.work
	ei := 0
	cur := int64(0)
	for j, iv := range prof.Intervals {
		for cur < iv.End {
			next := iv.End
			if ei < len(ev.keys) && ev.time(ei) < next {
				next = ev.time(ei)
			}
			if next > cur {
				emit(j, cur, next, idle+workPower)
				cur = next
			}
			for ei < len(ev.keys) && ev.time(ei) == cur {
				workPower += ev.delta(inst, nodes, ei)
				ei++
			}
		}
	}
}

// keyedEvents is a sorted sweep's event list with every event packed
// into one int64, t<<shift | i<<1 | end: the event's time, the position
// i of its node in the sweep, and end = 1 for the node's finish. Sorting
// the keys as integers orders the events by time with no comparator, and
// the low bits give back the work-power change. Only events inside
// (0, T) get a key: work is the net change of the events at or before 0,
// which apply up front, and events at or after T are never reached.
type keyedEvents struct {
	keys  []int64
	shift uint
	work  int64
}

// eventKeys builds and sorts the keyed events of a sweep over [0, T).
// ok is false when T<<shift would overflow an int64; the caller then
// falls back to sweepSortedFunc.
func eventKeys(inst *ceg.Instance, s *Schedule, T int64, nodes []int) (ev keyedEvents, ok bool) {
	n := sweptCount(inst, nodes)
	ev.shift = uint(bits.Len(uint(max(2*n-1, 0))))
	if bits.Len64(uint64(T))+int(ev.shift) > 63 {
		return ev, false
	}
	ev.keys = make([]int64, 0, 2*n)
	for i := 0; i < n; i++ {
		v := sweptNode(nodes, i)
		_, work := inst.ProcPower(v)
		start, finish := s.Start[v], s.Start[v]+inst.Dur[v]
		slot := int64(i) << 1
		if start <= 0 {
			ev.work += work
		} else if start < T {
			ev.keys = append(ev.keys, start<<ev.shift|slot)
		}
		if finish <= 0 {
			ev.work -= work
		} else if finish < T {
			ev.keys = append(ev.keys, finish<<ev.shift|slot|1)
		}
	}
	slices.Sort(ev.keys)
	return ev, true
}

// time returns the time of event i.
func (ev *keyedEvents) time(i int) int64 { return ev.keys[i] >> ev.shift }

// delta returns the work-power change of event i.
func (ev *keyedEvents) delta(inst *ceg.Instance, nodes []int, i int) int64 {
	k := ev.keys[i] & (1<<ev.shift - 1)
	_, work := inst.ProcPower(sweptNode(nodes, int(k>>1)))
	if k&1 != 0 {
		return -work
	}
	return work
}

// cost is the sweep's carbon cost, Σ max(P − G, 0) · length over the
// constant-power runs, accumulated in the walk itself: CarbonCost's
// sorted path, with no emit call per run.
func (ev *keyedEvents) cost(inst *ceg.Instance, prof *power.Profile, idle int64, nodes []int) int64 {
	var cost int64
	workPower := ev.work
	ei := 0
	cur := int64(0)
	for _, iv := range prof.Intervals {
		for cur < iv.End {
			next := iv.End
			if ei < len(ev.keys) && ev.time(ei) < next {
				next = ev.time(ei)
			}
			if over := idle + workPower - iv.Budget; over > 0 {
				cost += over * (next - cur)
			}
			cur = next
			for ei < len(ev.keys) && ev.time(ei) == cur {
				workPower += ev.delta(inst, nodes, ei)
				ei++
			}
		}
	}
	return cost
}

// sweepSortedFunc is the sorted sweep over events sorted by a
// comparator, for a horizon too long to pack (see eventKeys).
func sweepSortedFunc(inst *ceg.Instance, s *Schedule, prof *power.Profile, idle int64, nodes []int, emit func(j int, from, to, totalPower int64)) {
	type event struct {
		t int64
		d int64 // work power delta
	}
	n := sweptCount(inst, nodes)
	events := make([]event, 0, 2*n)
	for i := 0; i < n; i++ {
		v := sweptNode(nodes, i)
		_, work := inst.ProcPower(v)
		events = append(events, event{s.Start[v], work}, event{s.Start[v] + inst.Dur[v], -work})
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
		prof, idle := zone.Profile, zoneIdle(inst, zs, z)
		if !countedSweep(inst, prof, nodes[z]) {
			if ev, ok := eventKeys(inst, s, prof.T(), nodes[z]); ok {
				cost += ev.cost(inst, prof, idle, nodes[z])
				continue
			}
		}
		sweepNodes(inst, s, prof, idle, nodes[z], func(j int, from, to, totalPower int64) {
			if over := totalPower - prof.Intervals[j].Budget; over > 0 {
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
