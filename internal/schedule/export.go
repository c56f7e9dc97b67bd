package schedule

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/ceg"
	"repro/internal/power"
)

// Entry is one scheduled node in the export formats.
type Entry struct {
	Node  int    `json:"node"`
	Name  string `json:"name"`
	Kind  string `json:"kind"` // "task" or "comm"
	Proc  int    `json:"proc"`
	Start int64  `json:"start"`
	End   int64  `json:"end"`
}

// Export flattens a schedule into entries ordered by (proc, start, node).
func Export(inst *ceg.Instance, s *Schedule) []Entry {
	entries := make([]Entry, 0, inst.N())
	for v := 0; v < inst.N(); v++ {
		kind := "task"
		if inst.IsComm(v) {
			kind = "comm"
		}
		entries = append(entries, Entry{
			Node:  v,
			Name:  inst.G.Tasks[v].Name,
			Kind:  kind,
			Proc:  inst.Proc[v],
			Start: s.Start[v],
			End:   s.Start[v] + inst.Dur[v],
		})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Proc != entries[j].Proc {
			return entries[i].Proc < entries[j].Proc
		}
		if entries[i].Start != entries[j].Start {
			return entries[i].Start < entries[j].Start
		}
		return entries[i].Node < entries[j].Node
	})
	return entries
}

// WriteJSON writes the schedule as a JSON array of entries.
func WriteJSON(w io.Writer, inst *ceg.Instance, s *Schedule) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(Export(inst, s))
}

// ReadJSON parses a schedule previously written with WriteJSON, checking
// that it matches the instance shape. Extra validation (precedence,
// deadline) is the caller's job via Validate.
func ReadJSON(r io.Reader, inst *ceg.Instance) (*Schedule, error) {
	var entries []Entry
	if err := json.NewDecoder(r).Decode(&entries); err != nil {
		return nil, fmt.Errorf("schedule: decoding JSON: %w", err)
	}
	if len(entries) != inst.N() {
		return nil, fmt.Errorf("schedule: %d entries for %d nodes", len(entries), inst.N())
	}
	s := New(inst.N())
	seen := make([]bool, inst.N())
	for _, e := range entries {
		if e.Node < 0 || e.Node >= inst.N() {
			return nil, fmt.Errorf("schedule: entry references node %d", e.Node)
		}
		if seen[e.Node] {
			return nil, fmt.Errorf("schedule: duplicate entry for node %d", e.Node)
		}
		seen[e.Node] = true
		if want := e.Start + inst.Dur[e.Node]; e.End != want {
			return nil, fmt.Errorf("schedule: node %d end %d inconsistent with duration (want %d)", e.Node, e.End, want)
		}
		s.Start[e.Node] = e.Start
	}
	return s, nil
}

// WriteCSV writes the schedule as CSV rows (node,name,kind,proc,start,end).
func WriteCSV(w io.Writer, inst *ceg.Instance, s *Schedule) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "node,name,kind,proc,start,end")
	for _, e := range Export(inst, s) {
		name := e.Name
		if strings.ContainsAny(name, ",\"\n") {
			name = `"` + strings.ReplaceAll(name, `"`, `""`) + `"`
		}
		fmt.Fprintf(bw, "%d,%s,%s,%d,%d,%d\n", e.Node, name, e.Kind, e.Proc, e.Start, e.End)
	}
	return bw.Flush()
}

// GanttOptions tunes the ASCII Gantt rendering.
type GanttOptions struct {
	// Width is the number of character columns for the time axis
	// (default 80).
	Width int
	// MaxProcs caps the number of processor rows (busiest first);
	// 0 renders every processor that hosts at least one node.
	MaxProcs int
	// ShowBudget appends a budget sparkline row when a profile is given.
	Profile *power.Profile
}

// Gantt renders the schedule as an ASCII chart: one row per processor,
// time flowing right, '#' marking busy cells (with partial occupancy shown
// as '+'). When a profile is supplied, a final row sketches the green
// budget level (0-9 scale). It is a debugging and teaching aid, not a
// precise plot.
func Gantt(inst *ceg.Instance, s *Schedule, horizon int64, opt GanttOptions) string {
	width := opt.Width
	if width <= 0 {
		width = 80
	}
	if horizon <= 0 {
		horizon = Makespan(inst, s)
	}
	if horizon <= 0 {
		horizon = 1
	}
	scale := float64(width) / float64(horizon)

	type row struct {
		proc int
		busy int64
		line []byte
	}
	rows := map[int]*row{}
	for v := 0; v < inst.N(); v++ {
		p := inst.Proc[v]
		r, ok := rows[p]
		if !ok {
			line := make([]byte, width)
			for i := range line {
				line[i] = '.'
			}
			r = &row{proc: p, line: line}
			rows[p] = r
		}
		r.busy += inst.Dur[v]
		lo := int(float64(s.Start[v]) * scale)
		hi := int(float64(s.Start[v]+inst.Dur[v]) * scale)
		if hi == lo {
			hi = lo + 1
		}
		for i := lo; i < hi && i < width; i++ {
			if r.line[i] == '.' {
				r.line[i] = '#'
			} else {
				r.line[i] = '+' // visual overlap due to rounding only
			}
		}
	}
	list := make([]*row, 0, len(rows))
	for _, r := range rows {
		list = append(list, r)
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].busy != list[j].busy {
			return list[i].busy > list[j].busy
		}
		return list[i].proc < list[j].proc
	})
	if opt.MaxProcs > 0 && len(list) > opt.MaxProcs {
		list = list[:opt.MaxProcs]
	}

	var b strings.Builder
	fmt.Fprintf(&b, "time 0%s%d\n", strings.Repeat(" ", maxInt(1, width-len(fmt.Sprint(horizon))-5)), horizon)
	for _, r := range list {
		p := inst.Cluster.Proc(r.proc)
		name := p.Type.Name
		if p.IsLink() {
			name = fmt.Sprintf("link-%d-%d", p.Src, p.Dst)
		}
		fmt.Fprintf(&b, "p%-4d %-10s %s\n", r.proc, name, r.line)
	}
	if opt.Profile != nil {
		line := make([]byte, width)
		maxBud := opt.Profile.MaxBudget()
		for i := 0; i < width; i++ {
			t := int64(float64(i) / scale)
			if t >= opt.Profile.T() {
				line[i] = ' '
				continue
			}
			level := int64(0)
			if maxBud > 0 {
				level = 9 * opt.Profile.BudgetAt(t) / maxBud
			}
			line[i] = byte('0' + level)
		}
		fmt.Fprintf(&b, "%-17s %s\n", "green budget 0-9", line)
	}
	return b.String()
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
