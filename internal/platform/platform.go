// Package platform models the target computing platform of Section 3: a
// cluster of P heterogeneous compute processors plus (conceptually) P(P−1)
// fictional link processors, one per directed communication link of the
// fully connected, full-duplex topology.
//
// Every processor draws Idle power each time unit and an additional Work
// power while it executes a task or a communication. Link processors are
// materialized lazily: a link that never carries a communication contributes
// zero power, which Section 3 explicitly allows ("we could set the static
// power of a link that is never used to 0").
package platform

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/rng"
)

// ProcType describes one of the processor families of Table 1.
type ProcType struct {
	Name  string
	Speed int64 // normalized speed; runtime = ceil(weight / Speed)
	Idle  int64 // P_idle, power drawn every time unit
	Work  int64 // P_work, additional power while active
}

// Table1 returns the six processor types of the paper's Table 1.
func Table1() []ProcType {
	return []ProcType{
		{Name: "PT1", Speed: 4, Idle: 40, Work: 10},
		{Name: "PT2", Speed: 6, Idle: 60, Work: 30},
		{Name: "PT3", Speed: 8, Idle: 80, Work: 40},
		{Name: "PT4", Speed: 12, Idle: 120, Work: 50},
		{Name: "PT5", Speed: 16, Idle: 150, Work: 70},
		{Name: "PT6", Speed: 32, Idle: 200, Work: 100},
	}
}

// Processor is a compute node or a (materialized) communication link.
type Processor struct {
	ID    int
	Type  ProcType
	IsLnk bool
	// For link processors, Src and Dst identify the directed link.
	Src, Dst int
	// Zone is the grid zone supplying the processor's power (an index
	// into the power.ZoneSet the cluster is evaluated against). All
	// processors share zone 0 unless the cluster was built with NewZoned.
	// A link processor inherits the zone of its source processor (the
	// data leaves the source's grid).
	Zone int
}

// IsLink reports whether the processor is a communication link.
func (p *Processor) IsLink() bool { return p.IsLnk }

// Cluster is a set of compute processors plus lazily materialized links.
//
// A cluster is safe for concurrent use: one cluster is shared by every
// workflow a Solver (or the schedd service) plans against it, so link
// materialization — the only mutation after construction — is serialized
// behind a mutex. The processor table is append-only: a new link is
// appended to the current snapshot and the longer snapshot published, so
// a reader's snapshot never sees past its own length, pointers returned
// by Proc stay valid forever, and the Processor values themselves are
// never mutated.
type Cluster struct {
	procs    atomic.Pointer[[]Processor] // append-only snapshot
	nCompute int
	numZones int
	maxTotal int64      // max P_idle + P_work over compute processors
	mu       sync.Mutex // guards links and snapshot publication
	// links[src*nCompute+dst] is the processor id of link src→dst, 0 until
	// it is materialized (link ids start at nCompute, so 0 is never one).
	links    []int32
	linkSeed uint64 // deterministic link power derivation
}

// New creates a cluster with the given processor type counts. counts[i]
// nodes of types[i] are created, in order, so processor ids are stable.
// linkSeed parameterizes the deterministic pseudo-random power of links.
// All processors live in one grid zone (the paper's setting); use
// NewZoned for geo-distributed clusters.
func New(types []ProcType, counts []int, linkSeed uint64) *Cluster {
	return NewZoned(types, counts, nil, linkSeed)
}

// NewZoned creates a cluster like New with an explicit grid-zone
// assignment: zones[i] is the zone id of compute processor i (ids must be
// 0..K−1 with every zone hosting at least one processor, so zone indices
// line up with a power.ZoneSet of the same size). A nil zones slice puts
// every processor in zone 0 — byte-for-byte the New behavior.
//
// The assignment is fixed at construction: instances memoize per-zone
// idle floors, so a mutable assignment would silently desynchronize them.
func NewZoned(types []ProcType, counts []int, zones []int, linkSeed uint64) *Cluster {
	if len(types) != len(counts) {
		panic("platform: types and counts length mismatch")
	}
	c := &Cluster{linkSeed: linkSeed, numZones: 1}
	var procs []Processor
	id := 0
	for i, pt := range types {
		if pt.Speed <= 0 {
			panic(fmt.Sprintf("platform: processor type %q has non-positive speed", pt.Name))
		}
		for j := 0; j < counts[i]; j++ {
			procs = append(procs, Processor{ID: id, Type: pt})
			id++
		}
		if counts[i] > 0 {
			c.maxTotal = max(c.maxTotal, pt.Idle+pt.Work)
		}
	}
	c.nCompute = id
	c.links = make([]int32, id*id)
	if zones != nil {
		if len(zones) != id {
			panic(fmt.Sprintf("platform: %d zone assignments for %d compute processors", len(zones), id))
		}
		maxZone := 0
		for i, z := range zones {
			if z < 0 {
				panic(fmt.Sprintf("platform: processor %d has negative zone %d", i, z))
			}
			procs[i].Zone = z
			if z > maxZone {
				maxZone = z
			}
		}
		c.numZones = maxZone + 1
		seen := make([]bool, c.numZones)
		for _, z := range zones {
			seen[z] = true
		}
		for z, ok := range seen {
			if !ok {
				panic(fmt.Sprintf("platform: zone %d has no processors (ids must be contiguous)", z))
			}
		}
	}
	c.procs.Store(&procs)
	return c
}

// RoundRobinZones returns the zone assignment that deals P compute
// processors into k zones round-robin (processor i → zone i mod k). For
// the paper clusters — which list processors type-major — this keeps
// every zone heterogeneous, so each zone retains the full speed/power
// spectrum. It is the default layout behind the CLIs' -zones flag.
func RoundRobinZones(P, k int) []int {
	if k < 1 {
		k = 1
	}
	if k > P {
		k = P
	}
	zones := make([]int, P)
	for i := range zones {
		zones[i] = i % k
	}
	return zones
}

// snapshot returns the current immutable processor list.
func (c *Cluster) snapshot() []Processor { return *c.procs.Load() }

// Small returns the paper's small cluster: 12 nodes of each of the six
// Table 1 types (72 compute nodes).
func Small(linkSeed uint64) *Cluster {
	return New(Table1(), []int{12, 12, 12, 12, 12, 12}, linkSeed)
}

// Large returns the paper's large cluster: 24 nodes of each type
// (144 compute nodes).
func Large(linkSeed uint64) *Cluster {
	return New(Table1(), []int{24, 24, 24, 24, 24, 24}, linkSeed)
}

// SmallZoned returns the paper's small cluster split round-robin into the
// given number of grid zones (zones ≤ 1 is identical to Small).
func SmallZoned(linkSeed uint64, zones int) *Cluster {
	counts := []int{12, 12, 12, 12, 12, 12}
	return NewZoned(Table1(), counts, RoundRobinZones(72, zones), linkSeed)
}

// LargeZoned returns the paper's large cluster split round-robin into the
// given number of grid zones.
func LargeZoned(linkSeed uint64, zones int) *Cluster {
	counts := []int{24, 24, 24, 24, 24, 24}
	return NewZoned(Table1(), counts, RoundRobinZones(144, zones), linkSeed)
}

// NumCompute returns the number of compute processors P.
func (c *Cluster) NumCompute() int { return c.nCompute }

// NumZones returns the number of grid zones (1 unless built with
// NewZoned).
func (c *Cluster) NumZones() int { return c.numZones }

// ZoneOf returns the grid zone of the processor with the given id
// (compute or materialized link).
func (c *Cluster) ZoneOf(id int) int { return c.snapshot()[id].Zone }

// LinkSeed returns the seed that parameterizes the deterministic
// pseudo-random power of link processors. Together with the compute
// processor types and counts it fully reconstructs the cluster (used by
// the JSON wire format).
func (c *Cluster) LinkSeed() uint64 { return c.linkSeed }

// NumProcs returns the number of materialized processors (compute + links
// created so far).
func (c *Cluster) NumProcs() int { return len(c.snapshot()) }

// Proc returns the processor with the given id.
func (c *Cluster) Proc(id int) *Processor { return &c.snapshot()[id] }

// Link returns the id of the link processor for the directed link src→dst,
// materializing it on first use. Its idle and work power are each drawn
// deterministically from {1, 2} as in Section 6.1 ("we draw the values for
// Pidle and Pwork randomly between 1 and 2 for communication links"), so a
// link's power depends only on (linkSeed, src, dst) — never on the order
// in which concurrent workflows materialize links.
func (c *Cluster) Link(src, dst int) int {
	if src == dst {
		panic("platform: Link(src, src) requested; same-processor edges have no link")
	}
	if src < 0 || src >= c.nCompute || dst < 0 || dst >= c.nCompute {
		panic(fmt.Sprintf("platform: Link(%d, %d) out of range for %d compute procs", src, dst, c.nCompute))
	}
	key := src*c.nCompute + dst
	c.mu.Lock()
	defer c.mu.Unlock()
	if id := c.links[key]; id != 0 {
		return int(id)
	}
	h := rng.Mix(c.linkSeed, uint64(src)<<32|uint64(uint32(dst)))
	idle := int64(1 + h&1)
	work := int64(1 + (h>>1)&1)
	old := c.snapshot()
	id := len(old)
	// Appending writes past len(old) only: no published snapshot reads
	// there, so readers need no copy.
	procs := append(old, Processor{
		ID:    id,
		Type:  ProcType{Name: fmt.Sprintf("link-%d-%d", src, dst), Speed: 1, Idle: idle, Work: work},
		IsLnk: true,
		Src:   src,
		Dst:   dst,
		Zone:  old[src].Zone, // the transfer draws power in the source's grid
	})
	c.procs.Store(&procs)
	c.links[key] = int32(id)
	return id
}

// ExecTime returns the running time ω of a task with the given work weight
// on processor id: ceil(weight / speed), at least 1 time unit.
func (c *Cluster) ExecTime(weight int64, id int) int64 {
	sp := c.snapshot()[id].Type.Speed
	t := (weight + sp - 1) / sp
	if t < 1 {
		t = 1
	}
	return t
}

// CommTime returns the communication time of a data volume over a link.
// Network bandwidth is normalized to 1 (Section 6.1), so the time equals
// the volume, with a minimum of 1 time unit for non-empty transfers.
func (c *Cluster) CommTime(volume int64) int64 {
	if volume < 1 {
		return 1
	}
	return volume
}

// TotalIdle returns the sum of idle power over all materialized processors.
// This is the constant floor of the platform's power draw.
func (c *Cluster) TotalIdle() int64 {
	var sum int64
	for _, p := range c.snapshot() {
		sum += p.Type.Idle
	}
	return sum
}

// ComputeIdle returns the summed idle power of compute processors only.
func (c *Cluster) ComputeIdle() int64 {
	procs := c.snapshot()
	var sum int64
	for i := 0; i < c.nCompute; i++ {
		sum += procs[i].Type.Idle
	}
	return sum
}

// ComputeWork returns the summed work power of compute processors only.
func (c *Cluster) ComputeWork() int64 {
	procs := c.snapshot()
	var sum int64
	for i := 0; i < c.nCompute; i++ {
		sum += procs[i].Type.Work
	}
	return sum
}

// ZoneComputeIdle returns the summed idle power of the compute processors
// in zone z. Summed over all zones it equals ComputeIdle.
func (c *Cluster) ZoneComputeIdle(z int) int64 {
	procs := c.snapshot()
	var sum int64
	for i := 0; i < c.nCompute; i++ {
		if procs[i].Zone == z {
			sum += procs[i].Type.Idle
		}
	}
	return sum
}

// ZoneComputeWork returns the summed work power of the compute processors
// in zone z. Together with ZoneComputeIdle it spans the per-zone
// green-power corridor (the zone analogue of power.PlatformBounds).
func (c *Cluster) ZoneComputeWork(z int) int64 {
	procs := c.snapshot()
	var sum int64
	for i := 0; i < c.nCompute; i++ {
		if procs[i].Zone == z {
			sum += procs[i].Type.Work
		}
	}
	return sum
}

// MaxPower returns the maximum possible instantaneous power draw: total idle
// plus the work power of every materialized processor. It is the Big-M bound
// used by the ILP (Appendix A.4).
func (c *Cluster) MaxPower() int64 {
	var sum int64
	for _, p := range c.snapshot() {
		sum += p.Type.Idle + p.Type.Work
	}
	return sum
}

// MaxTotalPower returns max_j(P_idle(j) + P_work(j)) over compute
// processors, the normalization constant of the weighting factor wf(i)
// in Section 5.2. The compute processors are fixed at construction, and so
// is the maximum.
func (c *Cluster) MaxTotalPower() int64 { return c.maxTotal }

// WeightFactor returns wf(i) = (P_idle(i)+P_work(i)) / max_j(P_idle(j)+P_work(j))
// from Section 5.2, used by the weighted slack and pressure scores. The
// maximum is taken over compute processors; link processors get their own
// (tiny) numerator so communication tasks are nearly weightless.
func (c *Cluster) WeightFactor(id int) float64 {
	den := c.maxTotal
	if den == 0 {
		return 1
	}
	p := c.snapshot()[id]
	num := p.Type.Idle + p.Type.Work
	return float64(num) / float64(den)
}
