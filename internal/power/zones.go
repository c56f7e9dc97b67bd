package power

import (
	"fmt"

	"repro/internal/dag"
	"repro/internal/rng"
)

// The zone layer generalizes the paper's single cluster-wide green power
// profile to geo-distributed capacity: each grid zone (electricity-market
// region) carries its own profile, and the carbon cost of a task depends
// on where it runs, not just when. A ZoneSet is the only supply type the
// schedulers and cost functions accept; the paper's setting is the
// one-zone set, whose profile covers every processor.

// DefaultZoneName is the name of the implicit zone wrapping a bare
// profile (SingleZone). A one-zone set carrying this name is
// digest-identical to its profile, so legacy cache keys are preserved.
const DefaultZoneName = "default"

// Zone is a named grid zone with its own green power profile.
type Zone struct {
	Name    string
	Profile *Profile
}

// ZoneSet is an ordered collection of zones sharing one horizon [0, T).
// Zone order is significant: zone i of the set supplies green power to
// the processors assigned zone id i by the platform.
type ZoneSet struct {
	Zones []Zone
}

// SingleZone wraps a bare cluster-wide profile into the one-zone set —
// how a caller holding a *Profile (a wire "profile" body, a generated
// cluster-wide profile) enters the zone model.
func SingleZone(p *Profile) *ZoneSet {
	return &ZoneSet{Zones: []Zone{{Name: DefaultZoneName, Profile: p}}}
}

// NewZoneSet builds a validated zone set.
func NewZoneSet(zones ...Zone) (*ZoneSet, error) {
	zs := &ZoneSet{Zones: zones}
	if err := zs.Validate(); err != nil {
		return nil, err
	}
	return zs, nil
}

// NumZones returns the number of zones.
func (zs *ZoneSet) NumZones() int { return len(zs.Zones) }

// Single reports whether the set is the degenerate one-zone case.
func (zs *ZoneSet) Single() bool { return len(zs.Zones) == 1 }

// Zone returns zone i.
func (zs *ZoneSet) Zone(i int) Zone { return zs.Zones[i] }

// Profile returns zone i's profile.
func (zs *ZoneSet) Profile(i int) *Profile { return zs.Zones[i].Profile }

// ByName returns the index of the zone with the given name.
func (zs *ZoneSet) ByName(name string) (int, bool) {
	for i, z := range zs.Zones {
		if z.Name == name {
			return i, true
		}
	}
	return 0, false
}

// T returns the common horizon of all zones (the deadline).
func (zs *ZoneSet) T() int64 { return zs.Zones[0].Profile.T() }

// Validate checks the set invariants: at least one zone, unique names,
// every profile valid, and all horizons equal (per-zone traces of
// different lengths must be aligned with Profile.Clip first).
func (zs *ZoneSet) Validate() error {
	if len(zs.Zones) == 0 {
		return fmt.Errorf("power: empty zone set")
	}
	seen := make(map[string]bool, len(zs.Zones))
	for i, z := range zs.Zones {
		if z.Profile == nil {
			return fmt.Errorf("power: zone %d (%q) has no profile", i, z.Name)
		}
		if err := z.Profile.Validate(); err != nil {
			return fmt.Errorf("power: zone %d (%q): %w", i, z.Name, err)
		}
		if seen[z.Name] {
			return fmt.Errorf("power: duplicate zone name %q", z.Name)
		}
		seen[z.Name] = true
	}
	T := zs.Zones[0].Profile.T()
	for i, z := range zs.Zones[1:] {
		if h := z.Profile.T(); h != T {
			return fmt.Errorf("power: zone %d (%q) horizon %d != zone 0 horizon %d (align with Clip)",
				i+1, z.Name, h, T)
		}
	}
	return nil
}

// Clone returns a deep copy of the set.
func (zs *ZoneSet) Clone() *ZoneSet {
	out := &ZoneSet{Zones: make([]Zone, len(zs.Zones))}
	for i, z := range zs.Zones {
		out.Zones[i] = Zone{Name: z.Name, Profile: z.Profile.Clone()}
	}
	return out
}

// Clip returns the set with every zone profile clipped (truncated or
// extended) to horizon T — the alignment step for per-zone traces with
// different native horizons.
func (zs *ZoneSet) Clip(T int64) *ZoneSet {
	out := &ZoneSet{Zones: make([]Zone, len(zs.Zones))}
	for i, z := range zs.Zones {
		out.Zones[i] = Zone{Name: z.Name, Profile: z.Profile.Clip(T)}
	}
	return out
}

// Digest returns a 64-bit FNV-1a digest of the whole set: zone count,
// then every zone's name and profile digest. The degenerate SingleZone
// wrapper digests to exactly its profile's Digest, so solve-cache keys of
// legacy single-profile requests are unchanged by the zone layer.
func (zs *ZoneSet) Digest() uint64 {
	if len(zs.Zones) == 1 && zs.Zones[0].Name == DefaultZoneName {
		return zs.Zones[0].Profile.Digest()
	}
	h := dag.NewHash()
	h.U64(uint64(len(zs.Zones)))
	for _, z := range zs.Zones {
		h.Str(z.Name)
		h.U64(z.Profile.Digest())
	}
	return h.Sum64()
}

// EqualZoneSet reports whether two sets are identical zone by zone. It is
// the collision guard behind digest-keyed caches, extending
// Profile.EqualProfile.
func (zs *ZoneSet) EqualZoneSet(o *ZoneSet) bool {
	if zs == o {
		return true
	}
	if o == nil || len(zs.Zones) != len(o.Zones) {
		return false
	}
	for i := range zs.Zones {
		if zs.Zones[i].Name != o.Zones[i].Name ||
			!zs.Zones[i].Profile.EqualProfile(o.Zones[i].Profile) {
			return false
		}
	}
	return true
}

// TotalGreen returns the summed green energy over all zones.
func (zs *ZoneSet) TotalGreen() int64 {
	var sum int64
	for _, z := range zs.Zones {
		sum += z.Profile.TotalGreen()
	}
	return sum
}

// ZoneSpec parameterizes one zone of GenerateZones: its name, scenario
// shape, and green-power corridor (typically the per-zone platform bounds
// of the processors assigned to it).
type ZoneSpec struct {
	Name       string
	Scenario   Scenario
	Gmin, Gmax int64
}

// GenerateZones builds one profile per zone spec over the shared horizon
// [0, T), reusing Generate for each. Zone i's randomness is derived
// deterministically from (seed, i), so adding a zone never perturbs the
// profiles of the others.
func GenerateZones(specs []ZoneSpec, T int64, J int, seed uint64) (*ZoneSet, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("power: no zone specs")
	}
	zones := make([]Zone, len(specs))
	for i, sp := range specs {
		p, err := Generate(sp.Scenario, T, J, sp.Gmin, sp.Gmax, rng.New(rng.Mix(seed, uint64(i))))
		if err != nil {
			return nil, fmt.Errorf("power: zone %d (%q): %w", i, sp.Name, err)
		}
		zones[i] = Zone{Name: sp.Name, Profile: p}
	}
	return NewZoneSet(zones...)
}

// ZoneTrace parameterizes one zone of ZonesFromIntensity: its name,
// intensity trace, and corridor.
type ZoneTrace struct {
	Name       string
	Points     []TracePoint
	Gmin, Gmax int64
}

// ZonesFromIntensity converts one carbon-intensity trace per zone into a
// zone set over the shared horizon [0, T), reusing FromIntensity for
// each. Traces may have different native horizons: samples at or beyond T
// are dropped and the last surviving sample extends to T, so the
// resulting profiles always align.
func ZonesFromIntensity(traces []ZoneTrace, T int64) (*ZoneSet, error) {
	if len(traces) == 0 {
		return nil, fmt.Errorf("power: no zone traces")
	}
	zones := make([]Zone, len(traces))
	for i, tr := range traces {
		p, err := FromIntensity(tr.Points, T, tr.Gmin, tr.Gmax)
		if err != nil {
			return nil, fmt.Errorf("power: zone %d (%q): %w", i, tr.Name, err)
		}
		zones[i] = Zone{Name: tr.Name, Profile: p}
	}
	return NewZoneSet(zones...)
}
