// Package platform models the target computing platform of Section 3: a
// cluster of P heterogeneous compute processors plus P(P−1) fictional link
// processors, one per directed communication link of the fully connected,
// full-duplex topology.
//
// Every processor draws Idle power each time unit and an additional Work
// power while it executes a task or a communication. The whole processor
// table is built at construction; an instance charges idle power only for
// the processors its nodes use (ceg.Instance.TotalIdlePower), so a link that
// never carries a communication contributes zero power, which Section 3
// explicitly allows ("we could set the static power of a link that is never
// used to 0").
package platform

import (
	"fmt"

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

// Processor is a compute node or a communication link.
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

// Cluster is a set of P compute processors plus every directed link
// between them, in one fixed table of P² processors.
//
// A cluster is immutable after construction and so safe for concurrent
// use: one cluster is shared by every workflow a Solver (or the schedd
// service) plans against it. The compute processors come first, then the
// links in (src, dst) order, so a link's id is a function of (src, dst)
// alone and two clusters built from the same arguments hold the same table
// whatever they were asked before.
type Cluster struct {
	procs    []Processor // compute processors, then links in (src, dst) order
	nCompute int
	numZones int
	maxTotal int64  // max P_idle + P_work over compute processors
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
	P := 0
	for _, k := range counts {
		P += max(k, 0)
	}
	c := &Cluster{nCompute: P, linkSeed: linkSeed, numZones: 1}
	procs := make([]Processor, 0, P*P)
	for i, pt := range types {
		if pt.Speed <= 0 {
			panic(fmt.Sprintf("platform: processor type %q has non-positive speed", pt.Name))
		}
		for j := 0; j < counts[i]; j++ {
			procs = append(procs, Processor{ID: len(procs), Type: pt})
		}
		if counts[i] > 0 {
			c.maxTotal = max(c.maxTotal, pt.Idle+pt.Work)
		}
	}
	if zones != nil {
		if len(zones) != P {
			panic(fmt.Sprintf("platform: %d zone assignments for %d compute processors", len(zones), P))
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
	// A link's idle and work power are each drawn from {1, 2} as in Section
	// 6.1 ("we draw the values for Pidle and Pwork randomly between 1 and 2
	// for communication links"), as a function of (linkSeed, src, dst).
	for src := range P {
		for dst := range P {
			if src == dst {
				continue
			}
			h := rng.Mix(linkSeed, uint64(src)<<32|uint64(uint32(dst)))
			procs = append(procs, Processor{
				ID:    len(procs),
				Type:  ProcType{Speed: 1, Idle: int64(1 + h&1), Work: int64(1 + (h>>1)&1)},
				IsLnk: true,
				Src:   src,
				Dst:   dst,
				Zone:  procs[src].Zone, // the transfer draws power in the source's grid
			})
		}
	}
	c.procs = procs
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
// (compute or link).
func (c *Cluster) ZoneOf(id int) int { return c.procs[id].Zone }

// LinkSeed returns the seed that parameterizes the deterministic
// pseudo-random power of link processors. Together with the compute
// processor types and counts it fully reconstructs the cluster (used by
// the JSON wire format).
func (c *Cluster) LinkSeed() uint64 { return c.linkSeed }

// NumProcs returns the number of processors, P compute plus P(P−1) links.
func (c *Cluster) NumProcs() int { return len(c.procs) }

// Proc returns the processor with the given id.
func (c *Cluster) Proc(id int) *Processor { return &c.procs[id] }

// Link returns the id of the link processor for the directed link src→dst:
// the links follow the P compute processors in (src, dst) order, skipping
// src = dst.
func (c *Cluster) Link(src, dst int) int {
	if src == dst {
		panic("platform: Link(src, src) requested; same-processor edges have no link")
	}
	if src < 0 || src >= c.nCompute || dst < 0 || dst >= c.nCompute {
		panic(fmt.Sprintf("platform: Link(%d, %d) out of range for %d compute procs", src, dst, c.nCompute))
	}
	if dst > src {
		dst--
	}
	return c.nCompute + src*(c.nCompute-1) + dst
}

// ExecTime returns the running time ω of a task with the given work weight
// on processor id: ceil(weight / speed), at least 1 time unit.
func (c *Cluster) ExecTime(weight int64, id int) int64 {
	sp := c.procs[id].Type.Speed
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

// ComputeIdle returns the summed idle power of compute processors only.
func (c *Cluster) ComputeIdle() int64 {
	var sum int64
	for i := 0; i < c.nCompute; i++ {
		sum += c.procs[i].Type.Idle
	}
	return sum
}

// ComputeWork returns the summed work power of compute processors only.
func (c *Cluster) ComputeWork() int64 {
	var sum int64
	for i := 0; i < c.nCompute; i++ {
		sum += c.procs[i].Type.Work
	}
	return sum
}

// ZoneComputeIdle returns the summed idle power of the compute processors
// in zone z. Summed over all zones it equals ComputeIdle.
func (c *Cluster) ZoneComputeIdle(z int) int64 {
	var sum int64
	for i := 0; i < c.nCompute; i++ {
		if c.procs[i].Zone == z {
			sum += c.procs[i].Type.Idle
		}
	}
	return sum
}

// ZoneComputeWork returns the summed work power of the compute processors
// in zone z. Together with ZoneComputeIdle it spans the per-zone
// green-power corridor (the zone analogue of power.PlatformBounds).
func (c *Cluster) ZoneComputeWork(z int) int64 {
	var sum int64
	for i := 0; i < c.nCompute; i++ {
		if c.procs[i].Zone == z {
			sum += c.procs[i].Type.Work
		}
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
	p := c.procs[id]
	num := p.Type.Idle + p.Type.Work
	return float64(num) / float64(den)
}
