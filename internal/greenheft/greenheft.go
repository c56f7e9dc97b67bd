// Package greenheft implements the two-pass approach sketched in the
// paper's conclusion (Section 7): "a first pass devoted to mapping and
// ordering, but without a finalized schedule, and a second pass devoted to
// optimizing the schedule through the approach followed in this paper."
//
// The first pass is a carbon-aware variant of HEFT whose processor
// selection trades earliest finish time against the processor's power
// draw; the second pass is CaWoSched. The package exists to quantify how
// much a greener *mapping* adds on top of carbon-aware *scheduling* — the
// paper's stated future work, reproduced here as an executable experiment
// (see experiments.ExtensionTwoPass).
package greenheft

import (
	"fmt"

	"repro/internal/dag"
	"repro/internal/heft"
	"repro/internal/platform"
	"repro/internal/power"
)

// Policy selects the processor-selection rule of the mapping pass.
type Policy int

const (
	// EFT is classic HEFT: minimize earliest finish time. It reproduces
	// exactly the mapping the paper's experiments start from.
	EFT Policy = iota
	// LowPower minimizes finish_time × (P_idle + P_work): a greedy
	// compromise between speed and power draw.
	LowPower
	// EnergyPerWork minimizes the energy the task itself consumes
	// (duration × (P_idle + P_work)), breaking ties by finish time. It is
	// the most aggressive green policy and can lengthen the makespan
	// considerably.
	EnergyPerWork
	// ZoneGreen minimizes finish_time × (1 + (1 − avail)) where
	// avail ∈ [0, 1] is the candidate processor's *zone* green availability
	// over the task's tentative window [start, finish): the zone profile's
	// green energy in the window divided by its peak budget times the
	// window length. On a flat (constant) single-zone supply avail is
	// identical for every candidate, so ZoneGreen degenerates to EFT.
	ZoneGreen
	// ZoneEnergyPerWork minimizes task energy × (1 + (1 − avail)),
	// breaking ties by finish time: EnergyPerWork steered away from
	// zones that are brown during the task's tentative window.
	ZoneEnergyPerWork
)

// String returns a short identifier for result tables.
func (p Policy) String() string {
	switch p {
	case EFT:
		return "heft"
	case LowPower:
		return "lowpower"
	case EnergyPerWork:
		return "energy"
	case ZoneGreen:
		return "zonegreen"
	case ZoneEnergyPerWork:
		return "zoneenergy"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Valid reports whether p is a known policy.
func (p Policy) Valid() bool { return p >= EFT && p <= ZoneEnergyPerWork }

// ZoneAware reports whether the policy consults the per-zone green power
// forecast (and therefore requires Options.Zones).
func (p Policy) ZoneAware() bool { return p == ZoneGreen || p == ZoneEnergyPerWork }

// ParsePolicy resolves a policy name as printed by String. It is the
// parser behind the CLIs' and the wire format's mapping field.
func ParsePolicy(name string) (Policy, error) {
	for _, p := range AllPolicies() {
		if p.String() == name {
			return p, nil
		}
	}
	if name == "eft" { // common alias for the classic mapping
		return EFT, nil
	}
	return 0, fmt.Errorf("greenheft: unknown mapping policy %q (want heft, lowpower, energy, zonegreen or zoneenergy)", name)
}

// Policies lists the zone-blind mapping policies (the Section 7 set).
func Policies() []Policy { return []Policy{EFT, LowPower, EnergyPerWork} }

// AllPolicies lists every mapping policy including the zone-aware ones,
// the candidate set of the map-search pipeline.
func AllPolicies() []Policy {
	return []Policy{EFT, LowPower, EnergyPerWork, ZoneGreen, ZoneEnergyPerWork}
}

// Options tunes the mapping pass.
type Options struct {
	Policy Policy
	// Zones is the per-zone green power forecast consulted by the
	// zone-aware policies (required for them, ignored by the others).
	// A multi-zone set must carry one zone per cluster zone,
	// index-matched; windows beyond the forecast horizon count as brown.
	Zones *power.ZoneSet
}

// Schedule runs the carbon-aware mapping pass: HEFT's list scheduler
// (heft.ListSchedule — the task prioritization by upward rank is unchanged,
// it encodes the critical path) with the policy's objective as the score
// of a candidate placement. The result is the fixed mapping, ordering and
// reference times that the second (CaWoSched) pass consumes.
func Schedule(d *dag.DAG, c *platform.Cluster, opt Options) (*heft.Result, error) {
	if !opt.Policy.Valid() {
		return nil, fmt.Errorf("greenheft: unknown policy %d", int(opt.Policy))
	}
	if opt.Policy.ZoneAware() {
		if opt.Zones == nil {
			return nil, fmt.Errorf("greenheft: policy %s needs a per-zone power forecast (Options.Zones)", opt.Policy)
		}
		if err := opt.Zones.Validate(); err != nil {
			return nil, fmt.Errorf("greenheft: %w", err)
		}
		if !opt.Zones.Single() && opt.Zones.NumZones() != c.NumZones() {
			return nil, fmt.Errorf("greenheft: %d power zones for a cluster with %d zones",
				opt.Zones.NumZones(), c.NumZones())
		}
	}
	draw := make([]int64, c.NumCompute()) // P_idle + P_work per processor
	for p := range draw {
		draw[p] = c.Proc(p).Type.Idle + c.Proc(p).Type.Work
	}
	var peak []int64 // per power zone, the profile's peak budget
	if opt.Policy.ZoneAware() {
		peak = make([]int64, opt.Zones.NumZones())
		for z := range peak {
			peak[z] = opt.Zones.Profile(z).MaxBudget()
		}
	}
	res, err := heft.ListSchedule(d, c, func(p int, start, finish, dur int64) float64 {
		avail := 0.0
		if opt.Policy.ZoneAware() {
			avail = zoneAvail(c, opt.Zones, peak, p, start, finish)
		}
		return objective(opt.Policy, finish, dur, draw[p], avail)
	})
	if err != nil {
		return nil, fmt.Errorf("greenheft: %w", err)
	}
	return res, nil
}

func objective(policy Policy, finish, dur, power int64, avail float64) float64 {
	switch policy {
	case EFT:
		return float64(finish)
	case LowPower:
		return float64(finish) * float64(power)
	case EnergyPerWork:
		return float64(dur * power)
	case ZoneGreen:
		// 1 + (1 − avail), not 2 − avail: the two round differently.
		return float64(finish) * (1 + (1 - avail))
	case ZoneEnergyPerWork:
		return float64(dur*power) * (1 + (1 - avail))
	default:
		panic("greenheft: unknown policy")
	}
}

// zoneAvail is the green availability of processor p's zone over the
// window [start, finish): the zone profile's green energy inside the
// window divided by the zone's peak budget (peak[z], MaxBudget of its
// profile) times the full window length, so time beyond the forecast
// horizon counts as brown. On a single-zone set every processor reads
// zone 0, whatever the cluster's layout (the schedule.NodeZone
// convention).
func zoneAvail(c *platform.Cluster, zs *power.ZoneSet, peak []int64, p int, start, finish int64) float64 {
	z := 0
	if !zs.Single() {
		z = c.ZoneOf(p)
	}
	denom := peak[z] * (finish - start)
	if denom <= 0 {
		return 0
	}
	return float64(greenEnergy(zs.Profile(z), start, finish)) / float64(denom)
}

// greenEnergy sums budget × length over the profile's overlap with
// [from, to); the part of the window outside [0, T) contributes nothing.
func greenEnergy(p *power.Profile, from, to int64) int64 {
	if from < 0 {
		from = 0
	}
	if T := p.T(); to > T {
		to = T
	}
	if from >= to {
		return 0
	}
	var sum int64
	for j := p.IndexAt(from); j < len(p.Intervals); j++ {
		iv := p.Intervals[j]
		lo, hi := iv.Start, iv.End
		if lo < from {
			lo = from
		}
		if hi > to {
			hi = to
		}
		if lo >= hi {
			break
		}
		sum += iv.Budget * (hi - lo)
	}
	return sum
}
