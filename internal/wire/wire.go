// Package wire defines the JSON wire format of the scheduling service
// (cmd/schedd, internal/server): request/response bodies for the solve
// endpoints plus standalone encodings of the model types — workflow DAGs,
// clusters, and green power profiles — that round-trip losslessly through
// their converters. The CLIs can reuse the same encodings (e.g. a cluster
// description loaded from a JSON file), so a workflow or platform written
// once means the same thing to every tool.
package wire

import (
	"fmt"
	"strconv"

	"repro/internal/dag"
	"repro/internal/platform"
	"repro/internal/power"
)

// Task is one workflow vertex on the wire. Weight is required and must be
// positive — an omitted weight decodes as 0 and is rejected rather than
// silently defaulted, so a malformed request can never schedule a
// different workflow than the one submitted.
type Task struct {
	Name   string `json:"name,omitempty"`
	Weight int64  `json:"weight"`
}

// Edge is one precedence constraint on the wire.
type Edge struct {
	From   int   `json:"from"`
	To     int   `json:"to"`
	Weight int64 `json:"weight,omitempty"`
}

// DAG is a workflow graph on the wire. Task indices are positional.
type DAG struct {
	Tasks []Task `json:"tasks"`
	Edges []Edge `json:"edges,omitempty"`
}

// FromDAG encodes a workflow for the wire.
func FromDAG(d *dag.DAG) *DAG {
	out := &DAG{Tasks: make([]Task, d.N()), Edges: make([]Edge, d.M())}
	for i, t := range d.Tasks {
		out.Tasks[i] = Task{Name: t.Name, Weight: t.Weight}
	}
	for i, e := range d.Edges {
		out.Edges[i] = Edge{From: e.From, To: e.To, Weight: e.Weight}
	}
	return out
}

// ToDAG decodes and validates a workflow. Tasks with an empty name keep
// the default "v<i>" naming, so FromDAG∘ToDAG is the identity on valid
// graphs (dag.Equal). Weights are taken as-is — omitted or non-positive
// weights fail validation.
func (w *DAG) ToDAG() (*dag.DAG, error) {
	if len(w.Tasks) == 0 {
		return nil, fmt.Errorf("wire: workflow has no tasks")
	}
	tasks := make([]dag.Task, len(w.Tasks))
	for i, t := range w.Tasks {
		tasks[i] = dag.Task{ID: i, Name: t.Name, Weight: t.Weight}
		if t.Name == "" {
			tasks[i].Name = "v" + strconv.Itoa(i)
		}
	}
	edges := make([]dag.Edge, len(w.Edges))
	for i, e := range w.Edges {
		if e.From < 0 || e.From >= len(w.Tasks) || e.To < 0 || e.To >= len(w.Tasks) {
			return nil, fmt.Errorf("wire: edge %d (%d→%d) endpoint out of range", i, e.From, e.To)
		}
		edges[i] = dag.Edge{From: e.From, To: e.To, Weight: e.Weight}
	}
	d := dag.FromEdges(tasks, edges)
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("wire: invalid workflow: %w", err)
	}
	return d, nil
}

// Interval is one profile interval on the wire.
type Interval struct {
	Start  int64 `json:"start"`
	End    int64 `json:"end"`
	Budget int64 `json:"budget"`
}

// Profile is a green power profile on the wire: contiguous intervals
// covering [0, T).
type Profile struct {
	Intervals []Interval `json:"intervals"`
}

// FromProfile encodes a profile for the wire.
func FromProfile(p *power.Profile) *Profile {
	out := &Profile{Intervals: make([]Interval, len(p.Intervals))}
	for i, iv := range p.Intervals {
		out.Intervals[i] = Interval{Start: iv.Start, End: iv.End, Budget: iv.Budget}
	}
	return out
}

// ToProfile decodes and validates a profile.
func (w *Profile) ToProfile() (*power.Profile, error) {
	if len(w.Intervals) == 0 {
		return nil, fmt.Errorf("wire: profile has no intervals")
	}
	p := &power.Profile{Intervals: make([]power.Interval, len(w.Intervals))}
	for i, iv := range w.Intervals {
		p.Intervals[i] = power.Interval{Start: iv.Start, End: iv.End, Budget: iv.Budget}
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("wire: invalid profile: %w", err)
	}
	return p, nil
}

// Zone is one named grid zone with its own green power profile on the
// wire. Zone order is positional: zone i supplies the processors the
// cluster assigns zone id i.
type Zone struct {
	Name    string   `json:"name,omitempty"`
	Profile *Profile `json:"profile"`
}

// FromZoneSet encodes a per-zone supply for the wire.
func FromZoneSet(zs *power.ZoneSet) []Zone {
	out := make([]Zone, zs.NumZones())
	for i, z := range zs.Zones {
		out[i] = Zone{Name: z.Name, Profile: FromProfile(z.Profile)}
	}
	return out
}

// ToZoneSet decodes and validates a per-zone supply. Zones with an empty
// name get positional names ("z<i>") — except a lone unnamed zone, which
// becomes the default zone so that it evaluates (and cache-keys) exactly
// like the bare profile it wraps.
func ToZoneSet(zones []Zone) (*power.ZoneSet, error) {
	if len(zones) == 0 {
		return nil, fmt.Errorf("wire: empty zone list")
	}
	out := make([]power.Zone, len(zones))
	for i, z := range zones {
		if z.Profile == nil {
			return nil, fmt.Errorf("wire: zone %d (%q) has no profile", i, z.Name)
		}
		p, err := z.Profile.ToProfile()
		if err != nil {
			return nil, fmt.Errorf("wire: zone %d (%q): %w", i, z.Name, err)
		}
		name := z.Name
		if name == "" {
			if len(zones) == 1 {
				name = power.DefaultZoneName
			} else {
				name = fmt.Sprintf("z%d", i)
			}
		}
		out[i] = power.Zone{Name: name, Profile: p}
	}
	zs, err := power.NewZoneSet(out...)
	if err != nil {
		return nil, fmt.Errorf("wire: %w", err)
	}
	return zs, nil
}

// ProcGroup is a run of identical compute processors on the wire. Zone is
// the grid zone of the whole group (0 — the only zone of a non-zoned
// cluster — when omitted).
type ProcGroup struct {
	Name  string `json:"name,omitempty"`
	Speed int64  `json:"speed"`
	Idle  int64  `json:"idle"`
	Work  int64  `json:"work"`
	Count int    `json:"count"`
	Zone  int    `json:"zone,omitempty"`
}

// Cluster is a target platform on the wire: compute processor groups in
// id order plus the seed that derives the deterministic link powers.
// Link processors are never serialized — the decoded cluster builds every
// link from the groups and the seed, with the same ids, powers and zones
// (which follow their source processors).
type Cluster struct {
	Groups   []ProcGroup `json:"groups"`
	LinkSeed uint64      `json:"link_seed"`
}

// FromCluster encodes a cluster for the wire by compressing consecutive
// compute processors of identical type and zone into groups.
func FromCluster(c *platform.Cluster) *Cluster {
	out := &Cluster{LinkSeed: c.LinkSeed()}
	for i := 0; i < c.NumCompute(); i++ {
		pt := c.Proc(i).Type
		zone := c.ZoneOf(i)
		if n := len(out.Groups); n > 0 {
			g := &out.Groups[n-1]
			if g.Name == pt.Name && g.Speed == pt.Speed && g.Idle == pt.Idle && g.Work == pt.Work && g.Zone == zone {
				g.Count++
				continue
			}
		}
		out.Groups = append(out.Groups, ProcGroup{Name: pt.Name, Speed: pt.Speed, Idle: pt.Idle, Work: pt.Work, Count: 1, Zone: zone})
	}
	return out
}

// ToCluster decodes and validates a cluster.
func (w *Cluster) ToCluster() (*platform.Cluster, error) {
	if len(w.Groups) == 0 {
		return nil, fmt.Errorf("wire: cluster has no processor groups")
	}
	types := make([]platform.ProcType, len(w.Groups))
	counts := make([]int, len(w.Groups))
	var zones []int
	zoned := false
	maxZone := 0
	for i, g := range w.Groups {
		if g.Speed <= 0 {
			return nil, fmt.Errorf("wire: processor group %d has non-positive speed %d", i, g.Speed)
		}
		if g.Idle < 0 || g.Work < 0 {
			return nil, fmt.Errorf("wire: processor group %d has negative power", i)
		}
		if g.Count <= 0 {
			return nil, fmt.Errorf("wire: processor group %d has non-positive count %d", i, g.Count)
		}
		if g.Zone < 0 {
			return nil, fmt.Errorf("wire: processor group %d has negative zone %d", i, g.Zone)
		}
		if g.Zone > 0 {
			zoned = true
		}
		if g.Zone > maxZone {
			maxZone = g.Zone
		}
		types[i] = platform.ProcType{Name: g.Name, Speed: g.Speed, Idle: g.Idle, Work: g.Work}
		counts[i] = g.Count
	}
	if zoned {
		seen := make([]bool, maxZone+1)
		for _, g := range w.Groups {
			seen[g.Zone] = true
			for j := 0; j < g.Count; j++ {
				zones = append(zones, g.Zone)
			}
		}
		for z, ok := range seen {
			if !ok {
				return nil, fmt.Errorf("wire: zone %d has no processors (zone ids must be contiguous)", z)
			}
		}
	}
	return platform.NewZoned(types, counts, zones, w.LinkSeed), nil
}
