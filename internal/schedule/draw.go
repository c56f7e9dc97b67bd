package schedule

import (
	"cmp"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/ceg"
	"repro/internal/power"
)

// Draw is a piecewise-constant power draw: a sum of pieces, each drawing
// p over [from, to). Walk sets it against a profile — the polynomial event
// sweep of Appendix A.1, which merges the pieces' start and end events
// with the profile's interval boundaries. Every evaluation of a draw goes
// through it: the carbon cost and its per-interval breakdown, the
// timelines of the local search, the simulator's energy split and the
// tenancy ledger's residual supply. The zero Draw is empty and ready to
// use.
type Draw struct {
	ev []event // two per piece: +p at from, −p at to
}

// event changes a draw's level by d at time t.
type event struct{ t, d int64 }

// Add adds a piece drawing p over [from, to). A piece that draws nothing
// or lasts no time changes no level and is dropped.
func (d *Draw) Add(from, to, p int64) {
	if p == 0 || from >= to {
		return
	}
	d.ev = append(d.ev, event{from, p}, event{to, -p})
}

// Walk calls run for every run of constant level of the draw over the
// profile's horizon [0, T), in time order: j is the profile interval that
// holds the run [from, to), and level the sum of p over the pieces that
// cover it. The runs tile [0, T); none is empty and none crosses an
// interval boundary. Events at or before 0 apply up front, events at or
// after T change nothing that is reported.
//
// Where a run is cut beyond that is not part of the contract: two
// adjacent runs in one interval may share a level, depending on how the
// events were put in time order (see ordering). Every caller sums over
// the runs, fills units from them or merges equal neighbours, so the cuts
// never show.
func (d *Draw) Walk(prof *power.Profile, run func(j int, from, to, level int64)) {
	d.walk(prof, d.ordering(prof.T()), run)
}

// walk is Walk with the ordering of the events given.
func (d *Draw) walk(prof *power.Profile, o ordering, run func(j int, from, to, level int64)) {
	sc := walkPool.Get().(*walkScratch)
	defer walkPool.Put(sc)
	level, evs := d.inOrder(sc, prof.T(), o)
	ei, cur := 0, int64(0)
	for j, iv := range prof.Intervals {
		for cur < iv.End {
			next := iv.End
			if ei < len(evs) && evs[ei].t < next {
				next = evs[ei].t
			}
			run(j, cur, next, level)
			for cur = next; ei < len(evs) && evs[ei].t == cur; ei++ {
				level += evs[ei].d
			}
		}
	}
}

// ordering is how a walk puts a draw's events in time order.
type ordering int

const (
	// counted sums the events into a difference array over [0, T) and
	// reads back the times whose net change is not zero: no sort.
	counted ordering = iota
	// packed sorts one int64 per event, t<<shift | i, as integers: the
	// time, then the event's index i, whose low bits give back the change.
	packed
	// compared sorts the events with a comparator, for a horizon too long
	// to pack.
	compared
)

// slotsPerPiece is the counted ordering's limit: at most sixteen units of
// horizon per piece. When the horizon is short against the event count
// (the paper's workloads: a thousand nodes over a few hundred time units)
// the difference array needs no sort; when it is long (a 60-task workflow
// under a deadline factor of 30) the array would be mostly zeros to clear
// and scan, and sorting is cheaper. BenchmarkCarbonCostZones has a case
// on each side; forcing each ordering on a 2-vCPU host, 500xDF2 took
// 11–20 µs counted against 120–130 µs sorted, and 60xDF30 3.8–4.4 µs
// sorted against 18–22 µs counted.
const slotsPerPiece = 16

// ordering picks the ordering of a walk over [0, T): counted within
// slotsPerPiece, otherwise packed keys unless T<<keyShift would overflow
// an int64.
func (d *Draw) ordering(T int64) ordering {
	switch {
	case T <= slotsPerPiece*int64(len(d.ev)/2):
		return counted
	case bits.Len64(uint64(T))+int(d.keyShift()) <= 63:
		return packed
	default:
		return compared
	}
}

// keyShift is the number of low key bits that hold an event's index.
func (d *Draw) keyShift() uint { return uint(bits.Len(uint(max(len(d.ev)-1, 0)))) }

// walkScratch is a walk's working storage: the events inside the horizon
// in time order, and the difference array or the packed keys that ordered
// them. A walk takes one from walkPool and hands it back on return, so
// walking a draw allocates nothing once the pool is warm.
type walkScratch struct {
	sorted      []event
	delta, keys []int64
}

var walkPool = sync.Pool{New: func() any { return new(walkScratch) }}

// inOrder returns the level that applies up front — the net change of
// the events at or before 0 — and the events inside (0, T) in time order,
// put there by o, in sc's storage. The counted ordering merges the events
// of one instant and drops those that cancel; the sorts keep each one.
func (d *Draw) inOrder(sc *walkScratch, T int64, o ordering) (up int64, evs []event) {
	evs = slices.Grow(sc.sorted[:0], len(d.ev))
	switch o {
	case counted:
		delta := grow(sc.delta, T)
		clear(delta)
		for _, e := range d.ev {
			if e.t <= 0 {
				up += e.d
			} else if e.t < T {
				delta[e.t] += e.d
			}
		}
		for t := int64(1); t < T; t++ {
			if delta[t] != 0 {
				evs = append(evs, event{t, delta[t]})
			}
		}
		sc.delta = delta
	case packed:
		shift := d.keyShift()
		keys := slices.Grow(sc.keys[:0], len(d.ev))
		for i, e := range d.ev {
			if e.t <= 0 {
				up += e.d
			} else if e.t < T {
				keys = append(keys, e.t<<shift|int64(i))
			}
		}
		slices.Sort(keys)
		for _, k := range keys {
			evs = append(evs, event{k >> shift, d.ev[k&(1<<shift-1)].d})
		}
		sc.keys = keys
	case compared:
		for _, e := range d.ev {
			if e.t <= 0 {
				up += e.d
			} else if e.t < T {
				evs = append(evs, e)
			}
		}
		slices.SortFunc(evs, func(a, b event) int { return cmp.Compare(a.t, b.t) })
	}
	sc.sorted = evs
	return up, evs
}

// drawPool holds the draws of CarbonCost, CostBreakdown and
// NewZoneTimelines, so a stream of solves stops allocating their events.
// None of them outlives the call that took it.
var drawPool = sync.Pool{New: func() any { return new(Draw) }}

// loadNodes resets d to the work-power draw of the listed nodes under s,
// or of every node of the instance when the list is nil (the one-zone
// set; see zoneNodes).
func (d *Draw) loadNodes(inst *ceg.Instance, s *Schedule, nodes []int) {
	n := len(nodes)
	if nodes == nil {
		n = inst.N()
	}
	d.ev = slices.Grow(d.ev[:0], 2*n)
	for i := 0; i < n; i++ {
		v := i
		if nodes != nil {
			v = nodes[i]
		}
		_, work := inst.ProcPower(v)
		d.Add(s.Start[v], s.Start[v]+inst.Dur[v], work)
	}
}
