package experiments

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/ceg"
	"repro/internal/core"
	"repro/internal/greenheft"
	"repro/internal/heft"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/scherr"
	"repro/internal/stats"
)

// The mapping-ablation family quantifies what carbon-aware *mapping* adds
// on top of carbon-aware *scheduling* (the question the follow-up work on
// joint mapping+scheduling answers affirmatively for anti-correlated
// zones): the same multi-zone cells run under the fixed HEFT mapping,
// under each greenheft policy, and under the two-pass map-search, all
// against the identical per-zone supply.

// Mappings returns the canonical mapping roster of the ablation family:
// the fixed HEFT mapping ("" — legacy job keys), every greenheft policy,
// and the two-pass search.
func Mappings() []string {
	out := []string{""}
	for _, p := range greenheft.AllPolicies()[1:] { // EFT is the fixed mapping
		out = append(out, p.String())
	}
	return append(out, MapSearch)
}

// mappingLabel names a Spec.Mapping value in tables.
func mappingLabel(m string) string {
	if m == "" {
		return "fixed"
	}
	return m
}

// MappingTable aggregates a mapping-ablation run: for every mapping, the
// median carbon cost ratio against the fixed mapping of the same
// (instance, algorithm) cell, plus how many cells the mapping strictly
// improves. Results missing their fixed-mapping partner are dropped.
func MappingTable(results []Result) *Table {
	type cell struct {
		spec Spec
		algo string
	}
	fixed := map[cell]int64{}
	for _, r := range results {
		if r.Spec.Mapping == "" {
			key := cell{r.Spec, r.Algo}
			fixed[key] = r.Cost
		}
	}
	ratios := map[string][]float64{}
	better := map[string]int{}
	worse := map[string]int{}
	var mappings []string
	for _, r := range results {
		if r.Spec.Mapping == "" {
			continue
		}
		base := r.Spec
		base.Mapping = ""
		fc, ok := fixed[cell{base, r.Algo}]
		if !ok {
			continue
		}
		m := r.Spec.Mapping
		if _, seen := ratios[m]; !seen {
			mappings = append(mappings, m)
		}
		ratios[m] = append(ratios[m], stats.CostRatio(float64(r.Cost), float64(fc)))
		if r.Cost < fc {
			better[m]++
		}
		if r.Cost > fc {
			worse[m]++
		}
	}
	sort.Strings(mappings)
	t := &Table{
		Title:   "Mapping ablation: carbon cost vs the fixed HEFT mapping",
		Columns: []string{"mapping", "median_vs_fixed", "q1", "q3", "better", "worse", "cells"},
		Note:    "ratio < 1: the mapping lowers final carbon on that cell; map-search is never worse by construction",
	}
	for _, m := range mappings {
		rs := ratios[m]
		q1, med, q3 := stats.Quartiles(rs)
		t.Rows = append(t.Rows, []string{
			mappingLabel(m), f3(med), f3(q1), f3(q3),
			fmt.Sprintf("%d", better[m]), fmt.Sprintf("%d", worse[m]),
			fmt.Sprintf("%d", len(rs)),
		})
	}
	return t
}

// ZoneShiftTable is the per-zone load-shift figure of the multi-zone
// family: for each grid zone, the median share of the platform's busy
// work energy (Σ duration × P_work over the zone's nodes — the placement
// signal) and of the carbon cost (the timing signal) under three plans on
// the same instances: the carbon-blind ASAP baseline, fixed-mapping
// pressWR-LS, and the map-search plan. A zone whose work share grows from
// the fixed column to the map-search column is absorbing shifted load.
func ZoneShiftTable(ctx context.Context, specs []Spec, workers int) (*Table, error) {
	for _, spec := range specs {
		if spec.Zones < 2 {
			return nil, fmt.Errorf("experiments: zone shift on %s: the table needs multi-zone specs", spec)
		}
	}
	// One spec per worker-pool job (a spec runs a fixed schedule plus a
	// K-policy mapping search — the most expensive cell of any artifact),
	// merged in spec order afterwards.
	perSpec := make([][]zoneShiftRow, len(specs))
	err := forEach(ctx, len(specs), workers, func(i int) error {
		var err error
		perSpec[i], err = zoneShiftOne(ctx, specs[i])
		return err
	})
	if err != nil {
		return nil, err
	}

	type shares struct{ asapWork, asapCost, fixWork, fixCost, msWork, msCost []float64 }
	var zones int
	perZone := map[int]*shares{}
	for _, rows := range perSpec {
		if len(rows) > zones {
			zones = len(rows)
		}
		for z, r := range rows {
			s, ok := perZone[z]
			if !ok {
				s = &shares{}
				perZone[z] = s
			}
			s.asapWork = append(s.asapWork, r.asapWork)
			s.asapCost = append(s.asapCost, r.asapCost)
			s.fixWork = append(s.fixWork, r.fixWork)
			s.fixCost = append(s.fixCost, r.fixCost)
			s.msWork = append(s.msWork, r.msWork)
			s.msCost = append(s.msCost, r.msCost)
		}
	}
	t := &Table{
		Title:   "Per-zone load shift: work-energy and carbon-cost shares",
		Columns: []string{"zone", "asap_work", "fixed_work", "mapsearch_work", "asap_cost", "fixed_cost", "mapsearch_cost"},
		Note:    fmt.Sprintf("%d instances; medians of each zone's share; work = Σ dur × P_work placed in the zone", len(specs)),
	}
	for z := 0; z < zones; z++ {
		s, ok := perZone[z]
		if !ok {
			continue
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("z%d", z),
			pct(stats.Median(s.asapWork)), pct(stats.Median(s.fixWork)), pct(stats.Median(s.msWork)),
			pct(stats.Median(s.asapCost)), pct(stats.Median(s.fixCost)), pct(stats.Median(s.msCost)),
		})
	}
	return t, nil
}

// zoneShiftRow is one zone's shares for one spec.
type zoneShiftRow struct {
	asapWork, asapCost, fixWork, fixCost, msWork, msCost float64
}

// zoneShiftOne computes the per-zone shares of one spec under the three
// plans. The workflow and cluster are materialized once and feed both
// the fixed HEFT instance and the remapping candidates; the map-search
// plan is min(fixed, best non-EFT candidate) — the EFT candidate's plan
// is exactly the fixed one, so it is not recomputed, and the fixed plan
// stands when every remapping misses the horizon.
func zoneShiftOne(ctx context.Context, spec Spec) ([]zoneShiftRow, error) {
	opt := core.Options{Score: core.ScorePressureW, Refined: true, LocalSearch: true}
	d, cluster, err := materialize(spec)
	if err != nil {
		return nil, err
	}
	h, err := heft.Schedule(d, cluster)
	if err != nil {
		return nil, fmt.Errorf("experiments: zone shift on %s: HEFT: %w", spec, err)
	}
	fixedInst, err := ceg.Build(d, ceg.FromHEFT(h.Proc, h.Order, h.Finish), cluster)
	if err != nil {
		return nil, fmt.Errorf("experiments: zone shift on %s: %w", spec, err)
	}
	in, err := finishInstance(spec, fixedInst)
	if err != nil {
		return nil, err
	}
	asap := core.ASAP(in.Inst)
	fixedPlan, fixedStats, err := core.Run(ctx, in.Inst, in.Zones, opt)
	if err != nil {
		return nil, fmt.Errorf("experiments: zone shift on %s: %w", spec, err)
	}
	msInst, msPlan := in.Inst, fixedPlan
	ms, err := greenheft.MapAndSolve(ctx, d, cluster, in.Zones, greenheft.MapSolveOptions{
		Policies: greenheft.AllPolicies()[1:], Sched: opt,
	})
	switch {
	case err == nil:
		if ms.Cost < fixedStats.Cost {
			msInst, msPlan = ms.Inst, ms.Schedule
		}
	case errors.Is(err, scherr.ErrInfeasibleDeadline):
		// Every remapping misses the horizon; fixed stands.
	default:
		return nil, fmt.Errorf("experiments: zone shift on %s: %w", spec, err)
	}
	rows := make([]zoneShiftRow, spec.Zones)
	for z := 0; z < spec.Zones; z++ {
		r := &rows[z]
		r.asapWork, r.asapCost = zoneShares(in.Inst, asap, in.Zones, z)
		r.fixWork, r.fixCost = zoneShares(in.Inst, fixedPlan, in.Zones, z)
		r.msWork, r.msCost = zoneShares(msInst, msPlan, in.Zones, z)
	}
	return rows, nil
}

// zoneShares returns zone z's share of the schedule's busy work energy
// and of its carbon cost (0 when the respective total is 0).
func zoneShares(inst *ceg.Instance, s *schedule.Schedule, zs *power.ZoneSet, z int) (workShare, costShare float64) {
	var zoneWork, totalWork int64
	for v := 0; v < inst.N(); v++ {
		_, work := inst.ProcPower(v)
		e := inst.Dur[v] * work
		totalWork += e
		if schedule.NodeZone(inst, zs, v) == z {
			zoneWork += e
		}
	}
	bz := schedule.CostBreakdown(inst, s, zs)
	var zoneCost, totalCost int64
	for i, zc := range bz {
		totalCost += zc.Cost
		if i == z {
			zoneCost = zc.Cost
		}
	}
	if totalWork > 0 {
		workShare = float64(zoneWork) / float64(totalWork)
	}
	if totalCost > 0 {
		costShare = float64(zoneCost) / float64(totalCost)
	}
	return workShare, costShare
}
