package core

import (
	"repro/internal/ceg"
	"repro/internal/power"
	"repro/internal/schedule"
)

// lsSettled remembers which answers of the hill climber still stand, so a
// round re-examines only what a committed move touched.
//
// FirstImprovingMove(cur, lo, hi, dur, p) reads three things: the task's
// own start, the starts of its DAG neighbours (moveWindow derives lo and hi
// from them), and the timeline of the task's zone over [lo, hi+dur). A
// committed move of task m from `from` to `to` therefore changes the answer
// of exactly
//
//   - m itself (cur shifts),
//   - m's InEdges/OutEdges neighbours (their lo or hi may shift),
//   - tasks of m's zone whose [lo, hi+dur) overlaps [from, from+dur) or
//     [to, to+dur), the only stretches of the timeline whose level changed.
//
// Every other task would be handed bit-identical inputs and so give the
// answer it gave before. Commits are numbered from 1 across all rounds;
// each task keeps the number of the last commit that moved it or a
// neighbour, each zone keeps per time bucket the number of the last commit
// whose ranges touched the bucket. An answer taken after commit c is stale
// iff one of those numbers exceeds c. Buckets round the timeline rule
// outwards (a move marks, and a window reads, whole buckets), which can
// only cause an evaluation that was not needed, never skip one that was.
//
// The scan skips a task whose last evaluation found no move and has not
// gone stale since.
type lsSettled struct {
	commits int
	zoneOf  []int // per task, its evaluation zone; never written after construction
	tasks   []lsTask
	shift   uint    // a bucket spans 1<<shift time units
	stamp   [][]int // per zone, per bucket: the last commit that touched it
}

// lsTask is the per-task state, packed so a skipped visit reads one line.
type lsTask struct {
	moved   int   // last commit that moved the task or a DAG neighbour
	settled int   // commits when the last evaluation found no move; -1: none stands
	lo, end int64 // the timeline stretch [lo, hi+dur) that evaluation read
}

const (
	lsBucketShift = 3       // 8 units: below the ±µ window, so a move unsettles few bystanders
	lsMaxBuckets  = 1 << 12 // per zone; longer horizons get wider buckets
)

func newLSSettled(inst *ceg.Instance, zs *power.ZoneSet) *lsSettled {
	n := inst.N()
	d := &lsSettled{zoneOf: make([]int, n), tasks: make([]lsTask, n), shift: lsBucketShift}
	for v := range d.tasks {
		d.zoneOf[v] = schedule.NodeZone(inst, zs, v)
		d.tasks[v].settled = -1
	}
	T := zs.T()
	for T>>d.shift >= lsMaxBuckets {
		d.shift++
	}
	d.stamp = make([][]int, zs.NumZones())
	for z := range d.stamp {
		d.stamp[z] = make([]int, T>>d.shift+1)
	}
	return d
}

// changedSince reports whether a commit numbered above since could change
// the evaluation of v, given that the evaluation reads [lo, end) of v's
// zone timeline.
func (d *lsSettled) changedSince(v, since int, lo, end int64) bool {
	t := &d.tasks[v]
	if t.moved > since {
		return true
	}
	st := d.stamp[d.zoneOf[v]]
	for b, last := lo>>d.shift, (end-1)>>d.shift; b <= last; b++ {
		if st[b] > since {
			return true
		}
	}
	return false
}

// skip reports whether v's last evaluation found no move and still stands.
func (d *lsSettled) skip(v int) bool {
	t := &d.tasks[v]
	return t.settled >= 0 && !d.changedSince(v, t.settled, t.lo, t.end)
}

// settle records that an evaluation of v over the move window [lo, hi],
// valid on the state after the latest commit, found no improving move.
func (d *lsSettled) settle(v int, lo, hi, dur int64) {
	t := &d.tasks[v]
	t.settled, t.lo, t.end = d.commits, lo, hi+dur
}

// commit records the move of v from `from` to `to`.
func (d *lsSettled) commit(inst *ceg.Instance, v int, from, to, dur int64) {
	d.commits++
	c := d.commits
	g := inst.G
	d.tasks[v].moved = c
	for _, ei := range g.InEdges(v) {
		d.tasks[g.Edges[ei].From].moved = c
	}
	for _, ei := range g.OutEdges(v) {
		d.tasks[g.Edges[ei].To].moved = c
	}
	st := d.stamp[d.zoneOf[v]]
	for _, a := range [2]int64{from, to} {
		for b, last := a>>d.shift, (a+dur-1)>>d.shift; b <= last; b++ {
			st[b] = c
		}
	}
}
