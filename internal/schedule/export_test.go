package schedule

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/power"
)

func TestExportOrdering(t *testing.T) {
	inst, _, s := randomHEFTInstance(t, 40, 1)
	entries := Export(inst, s)
	if len(entries) != inst.N() {
		t.Fatalf("exported %d entries, want %d", len(entries), inst.N())
	}
	for i := 1; i < len(entries); i++ {
		a, b := entries[i-1], entries[i]
		if a.Proc > b.Proc || (a.Proc == b.Proc && a.Start > b.Start) {
			t.Fatalf("entries not ordered at %d: %+v then %+v", i, a, b)
		}
	}
	for _, e := range entries {
		if e.End != s.Start[e.Node]+inst.Dur[e.Node] {
			t.Errorf("entry %d end inconsistent", e.Node)
		}
		if e.Kind != "task" && e.Kind != "comm" {
			t.Errorf("entry kind %q", e.Kind)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	inst, prof, s := randomHEFTInstance(t, 50, 2)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, inst, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf, inst)
	if err != nil {
		t.Fatal(err)
	}
	for v := range s.Start {
		if got.Start[v] != s.Start[v] {
			t.Fatalf("round trip changed start of %d: %d → %d", v, s.Start[v], got.Start[v])
		}
	}
	if err := Validate(inst, got, prof.T()); err != nil {
		t.Error(err)
	}
}

func TestReadJSONRejectsCorruption(t *testing.T) {
	inst, _, s := randomHEFTInstance(t, 30, 3)
	render := func() *bytes.Buffer {
		var buf bytes.Buffer
		if err := WriteJSON(&buf, inst, s); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	// Garbage input.
	if _, err := ReadJSON(strings.NewReader("{"), inst); err == nil {
		t.Error("garbage JSON accepted")
	}
	// Wrong node count: drop the closing bracket trick — easier to build a
	// truncated array.
	var short bytes.Buffer
	short.WriteString("[]")
	if _, err := ReadJSON(&short, inst); err == nil {
		t.Error("empty entry list accepted")
	}
	// Inconsistent end time.
	tampered := strings.Replace(render().String(), `"end": `, `"end": 9`, 1)
	if _, err := ReadJSON(strings.NewReader(tampered), inst); err == nil {
		t.Error("tampered end time accepted")
	}
}

func TestWriteCSVShape(t *testing.T) {
	inst, _, s := randomHEFTInstance(t, 30, 4)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, inst, s); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != inst.N()+1 {
		t.Fatalf("CSV has %d lines, want %d", len(lines), inst.N()+1)
	}
	if lines[0] != "node,name,kind,proc,start,end" {
		t.Errorf("header = %q", lines[0])
	}
	for _, line := range lines[1:] {
		if strings.Count(line, ",") < 5 {
			t.Errorf("row %q has too few columns", line)
		}
	}
}

func TestGanttRendering(t *testing.T) {
	inst := chainInstance(t, 2, []int64{4, 4}, 1, 2)
	s := asap(inst)
	prof := power.Constant(16, 5)
	out := Gantt(inst, s, 16, GanttOptions{Width: 16, Profile: prof})
	if !strings.Contains(out, "####") {
		t.Errorf("no busy cells rendered:\n%s", out)
	}
	if !strings.Contains(out, "green budget") {
		t.Errorf("budget row missing:\n%s", out)
	}
	// Busy prefix (tasks at 0..8 of 16 → half the width).
	lines := strings.Split(out, "\n")
	var procLine string
	for _, l := range lines {
		if strings.HasPrefix(l, "p0") {
			procLine = l
		}
	}
	if procLine == "" {
		t.Fatalf("processor row missing:\n%s", out)
	}
	if !strings.Contains(procLine, "########") {
		t.Errorf("expected 8 busy columns in %q", procLine)
	}
}

func TestGanttMaxProcsCap(t *testing.T) {
	inst, _, s := randomHEFTInstance(t, 60, 5)
	out := Gantt(inst, s, 0, GanttOptions{Width: 40, MaxProcs: 3})
	procRows := 0
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "p") {
			procRows++
		}
	}
	if procRows != 3 {
		t.Errorf("rendered %d processor rows, want 3", procRows)
	}
}

func TestGanttDefaults(t *testing.T) {
	inst := chainInstance(t, 1, []int64{5}, 1, 1)
	s := New(1)
	out := Gantt(inst, s, 0, GanttOptions{})
	if out == "" || !strings.Contains(out, "p0") {
		t.Errorf("default rendering broken:\n%s", out)
	}
}

// Hooks for the external tests of this directory (package schedule_test),
// which may import packages that import schedule.

// ForceSparseTimelines makes every timeline built until the returned
// function is called use the sparse breakpoint representation, whatever
// its horizon.
func ForceSparseTimelines() (restore func()) {
	old := denseHorizonLimit
	denseHorizonLimit = 0
	return func() { denseHorizonLimit = old }
}

// ZonedHEFTInstance is the zoned fixture of this package's own tests.
var ZonedHEFTInstance = zonedHEFTInstance
