// Package experiments reproduces the simulation study of Section 6: the
// instance corpus (34 workflows × 2 clusters × 16 power profiles), the
// algorithm roster (ASAP + 16 CaWoSched variants), parallel experiment
// execution, and the per-figure/table aggregation.
package experiments

import (
	"fmt"

	"repro/internal/ceg"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/greenheft"
	"repro/internal/heft"
	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/rng"
	"repro/internal/wfgen"
)

// ClusterSize selects one of the two target platforms of Section 6.1.
type ClusterSize int

const (
	Small ClusterSize = iota // 72 compute nodes (12 per type)
	Large                    // 144 compute nodes (24 per type)
)

func (c ClusterSize) String() string {
	if c == Large {
		return "large"
	}
	return "small"
}

// DeadlineFactors are the paper's four deadline tolerances: T = factor·D
// where D is the ASAP makespan.
func DeadlineFactors() []float64 { return []float64{1, 1.5, 2, 3} }

// ProfileIntervals is the number of intervals per generated power profile
// (24 "hours" over the horizon).
const ProfileIntervals = 24

// Spec identifies one simulation instance deterministically.
type Spec struct {
	Family         wfgen.Family
	N              int // 0 → the family's real-world size
	Cluster        ClusterSize
	Scenario       power.Scenario
	DeadlineFactor float64
	Seed           uint64
	// Zones ≥ 2 selects the multi-zone scenario family: the cluster is
	// split round-robin into that many grid zones, each generating its
	// own profile with the scenario shape rotated per zone (zone z runs
	// the scenario Zones positions after Scenario, so adjacent zones are
	// anti-correlated: S1's midday peak against S2's midday trough).
	// 0 or 1 is the paper's single-zone setting.
	Zones int
	// Mapping selects the first-pass mapping of the mapping-ablation
	// family: "" is the paper's fixed HEFT mapping (the legacy grid), a
	// greenheft policy name remaps the workflow under that policy, and
	// MapSearch builds every candidate mapping and lets each algorithm
	// keep its lowest-carbon feasible plan. The deadline and the per-zone
	// supply are always anchored to the fixed mapping, so all mappings of
	// one cell compete under the identical forecast.
	Mapping string
}

// MapSearch is the Spec.Mapping value selecting the two-pass search.
const MapSearch = "map-search"

// Tasks returns the actual vertex count of the workflow.
func (s Spec) Tasks() int {
	if s.N == 0 {
		return s.Family.RealSize()
	}
	return s.N
}

// WorkflowName names the workflow like the paper's corpus entries.
func (s Spec) WorkflowName() string {
	if s.N == 0 {
		return fmt.Sprintf("%s-real", s.Family)
	}
	return fmt.Sprintf("%s-%d", s.Family, s.N)
}

func (s Spec) String() string {
	base := fmt.Sprintf("%s/%s/%s/x%.1f", s.WorkflowName(), s.Cluster, s.Scenario, s.DeadlineFactor)
	if s.Zones >= 2 {
		// The suffix is part of the sweep job key; single-zone specs keep
		// the legacy spelling so old JSONL streams resume cleanly.
		base += fmt.Sprintf("/z%d", s.Zones)
	}
	if s.Mapping != "" {
		// Same contract: fixed-mapping specs keep the legacy key.
		base += "/m" + s.Mapping
	}
	return base
}

// SizeClass buckets workflows like Figure 16: small (≤ 4,000 tasks),
// medium (≤ 18,000), large (> 18,000).
func (s Spec) SizeClass() string {
	n := s.Tasks()
	switch {
	case n <= 4000:
		return "small"
	case n <= 18000:
		return "medium"
	default:
		return "large"
	}
}

// MappedCandidate is one candidate mapping of a map-search instance.
type MappedCandidate struct {
	Mapping string // greenheft policy name
	Inst    *ceg.Instance
}

// Instance is a fully materialized simulation input.
type Instance struct {
	Spec Spec
	Inst *ceg.Instance
	// Zones is the per-zone green supply every algorithm runs against: the
	// SingleZone of one cluster-wide profile for the single-zone corpus.
	Zones *power.ZoneSet
	D     int64 // ASAP makespan (the tightest deadline)
	// Candidates is the per-policy mapping set of a map-search spec
	// (Inst then holds the fixed mapping and is also candidate 0): each
	// algorithm runs on every candidate and keeps its lowest-carbon
	// feasible plan. Nil for every other spec.
	Candidates []MappedCandidate
}

// BuildInstance constructs the instance for a spec: generate the workflow,
// compute the HEFT mapping on the chosen cluster, build the
// communication-enhanced DAG, measure D, and generate the power profile
// over T = factor·D with the paper's green-power corridor. A spec with a
// Mapping remaps the workflow under that greenheft policy against the
// fixed mapping's supply (map-search materializes every candidate).
func BuildInstance(s Spec) (*Instance, error) {
	d, cluster, err := materialize(s)
	if err != nil {
		return nil, err
	}
	h, err := heft.Schedule(d, cluster)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: HEFT: %w", s, err)
	}
	fixed, err := ceg.Build(d, ceg.FromHEFT(h.Proc, h.Order, h.Finish), cluster)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", s, err)
	}
	base, err := finishInstance(s, fixed)
	if err != nil || s.Mapping == "" {
		return base, err
	}
	if s.Mapping == MapSearch {
		for _, pol := range greenheft.AllPolicies() {
			inst := fixed
			if pol != greenheft.EFT {
				if inst, err = mapInstance(s, d, cluster, pol, base.Zones); err != nil {
					return nil, err
				}
			}
			base.Candidates = append(base.Candidates, MappedCandidate{Mapping: pol.String(), Inst: inst})
		}
		return base, nil
	}
	pol, err := greenheft.ParsePolicy(s.Mapping)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", s, err)
	}
	mapped, err := mapInstance(s, d, cluster, pol, base.Zones)
	if err != nil {
		return nil, err
	}
	base.Inst = mapped
	base.D = core.ASAPMakespan(mapped)
	return base, nil
}

// mapInstance remaps the workflow under a greenheft policy and builds the
// scheduling instance; zone-aware policies consult the spec's per-zone
// supply (the one anchored to the fixed mapping).
func mapInstance(s Spec, d *dag.DAG, cluster *platform.Cluster, pol greenheft.Policy, zs *power.ZoneSet) (*ceg.Instance, error) {
	inst, err := greenheft.MapInstance(d, cluster, greenheft.Options{Policy: pol, Zones: zs})
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: mapping %s: %w", s, pol, err)
	}
	return inst, nil
}

// materialize generates the workflow and target cluster of a spec.
func materialize(s Spec) (*dag.DAG, *platform.Cluster, error) {
	d, err := wfgen.Generate(s.Family, s.Tasks(), s.Seed)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: %s: %w", s, err)
	}
	zones := s.Zones
	if zones < 1 {
		zones = 1
	}
	var cluster *platform.Cluster
	if s.Cluster == Large {
		cluster = platform.LargeZoned(s.Seed, zones)
	} else {
		cluster = platform.SmallZoned(s.Seed, zones)
	}
	return d, cluster, nil
}

// finishInstance derives the deadline and per-zone power supply for a
// mapped instance (the part of BuildInstance independent of the mapping
// policy).
func finishInstance(s Spec, inst *ceg.Instance) (*Instance, error) {
	D := core.ASAPMakespan(inst)
	T := int64(float64(D)*s.DeadlineFactor + 0.5)
	if T < D {
		T = D
	}
	profSeed := rng.Mix(s.Seed, uint64(s.Scenario)<<32|uint64(uint32(T)))
	if s.Zones >= 2 {
		// Multi-zone scenario family: one profile per zone, scenario
		// shape rotated per zone within the zone's own corridor.
		scenarios := power.Scenarios()
		base := 0
		for i, sc := range scenarios {
			if sc == s.Scenario {
				base = i
			}
		}
		specs := make([]power.ZoneSpec, s.Zones)
		for z := 0; z < s.Zones; z++ {
			gmin, gmax := power.PlatformBounds(inst.ZoneIdlePower(z), inst.Cluster.ZoneComputeWork(z))
			specs[z] = power.ZoneSpec{
				Name:     fmt.Sprintf("z%d", z),
				Scenario: scenarios[(base+z)%len(scenarios)],
				Gmin:     gmin,
				Gmax:     gmax,
			}
		}
		zs, err := power.GenerateZones(specs, T, ProfileIntervals, profSeed)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: zones: %w", s, err)
		}
		return &Instance{Spec: s, Inst: inst, Zones: zs, D: D}, nil
	}
	gmin, gmax := power.PlatformBounds(inst.TotalIdlePower(), inst.Cluster.ComputeWork())
	prof, err := power.Generate(s.Scenario, T, ProfileIntervals, gmin, gmax, rng.New(profSeed))
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: profile: %w", s, err)
	}
	return &Instance{Spec: s, Inst: inst, Zones: power.SingleZone(prof), D: D}, nil
}

// Corpus builds the full experiment grid. Workflow sizes above maxTasks
// are dropped (maxTasks ≤ 0 keeps the paper's full corpus, up to 30,000
// tasks). With the full corpus the grid has 34 workflows × 2 clusters ×
// 4 scenarios × 4 deadlines = 1088 instances, exactly Section 6.1.
func Corpus(maxTasks int, seed uint64) []Spec {
	var specs []Spec
	for _, fam := range wfgen.Families() {
		sizes := []int{0} // real-world version
		for _, n := range fam.ScaledSizes() {
			if maxTasks <= 0 || n <= maxTasks {
				sizes = append(sizes, n)
			}
		}
		for _, n := range sizes {
			if maxTasks > 0 && n == 0 && fam.RealSize() > maxTasks {
				continue
			}
			for _, cl := range []ClusterSize{Small, Large} {
				for _, sc := range power.Scenarios() {
					for _, df := range DeadlineFactors() {
						specs = append(specs, Spec{
							Family:         fam,
							N:              n,
							Cluster:        cl,
							Scenario:       sc,
							DeadlineFactor: df,
							Seed:           seed,
						})
					}
				}
			}
		}
	}
	return specs
}

// MultiZoneCorpus is the geo-distributed extension of the grid: the same
// workflow × cluster × scenario × deadline cells, with every cluster
// split round-robin into the given number of grid zones and one
// rotated-scenario profile per zone (see Spec.Zones). zones < 2 returns
// the classic single-zone corpus.
func MultiZoneCorpus(maxTasks int, seed uint64, zones int) []Spec {
	specs := Corpus(maxTasks, seed)
	if zones < 2 {
		return specs
	}
	for i := range specs {
		specs[i].Zones = zones
	}
	return specs
}

// AblationCorpus is the Table 2 subset: all atacseq variants plus bacass
// ("more than 400 experiments per algorithm variant").
func AblationCorpus(maxTasks int, seed uint64) []Spec {
	var specs []Spec
	for _, s := range Corpus(maxTasks, seed) {
		if s.Family == wfgen.Atacseq || s.Family == wfgen.Bacass {
			specs = append(specs, s)
		}
	}
	return specs
}

// TinyCorpus is the Figure 7 subset: instances small enough for the exact
// solver (the paper restricts to ≤ 200 tasks for Gurobi; our
// branch-and-bound handles ≤ maxTasks ~ 8-10 tasks, so we generate
// dedicated miniature workflows).
func TinyCorpus(seed uint64) []Spec {
	var specs []Spec
	for _, fam := range wfgen.Families() {
		for _, n := range []int{6, 8} {
			for _, sc := range power.Scenarios() {
				for _, df := range []float64{1.5, 2} {
					specs = append(specs, Spec{
						Family:         fam,
						N:              n,
						Cluster:        Small,
						Scenario:       sc,
						DeadlineFactor: df,
						Seed:           seed,
					})
				}
			}
		}
	}
	return specs
}
