package main

import (
	"context"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestRunSingleArtifact(t *testing.T) {
	dir := t.TempDir()
	if err := run(150, 42, 0, dir, "table1", true); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "table1.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Error("table1.csv empty")
	}
}

func TestRunTinyCorpusFigures(t *testing.T) {
	dir := t.TempDir()
	// A tiny max-tasks keeps this fast: only the real bacass workflow
	// fits under 100 tasks.
	if err := run(100, 42, 0, dir, "fig1,fig4", true); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig1.csv", "fig4.csv"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("%s not written: %v", name, err)
		}
	}
}

// TestRunAblations: the opt-in ablation group writes exactly its four
// tables and nothing else.
func TestRunAblations(t *testing.T) {
	dir := t.TempDir()
	if err := run(100, 42, 0, dir, "ablations", true); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		got = append(got, e.Name())
	}
	want := []string{"ablation_improvers.csv", "ablation_k.csv", "ablation_mu.csv", "extension_twopass.csv"}
	if !slices.Equal(got, want) {
		t.Errorf("wrote %v, want %v", got, want)
	}
}

func TestRunArrivalArtifact(t *testing.T) {
	dir := t.TempDir()
	// Two load factors × two zone counts, tiny workflows and traces so the
	// online simulation stays fast.
	arr := arrivalOpts{rates: "1,4", zones: "1,2", arrivals: 3}
	if err := run2(context.Background(), 30, 42, 0, dir, "arrival", 1, true, "", arr); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "arrival_frontier.csv"))
	if err != nil {
		t.Fatal(err)
	}
	csv := string(data)
	// Header plus one row per (rate, zones) cell.
	if got := len(splitLines(data)); got != 5 {
		t.Fatalf("arrival_frontier.csv has %d lines, want 5:\n%s", got, csv)
	}
	for _, key := range []string{"/a1|", "/a4|", "/z2/a1|", "/z2/a4|"} {
		if !strings.Contains(csv, key) {
			t.Errorf("frontier CSV missing cell %q:\n%s", key, csv)
		}
	}

	if _, err := parseFloatList("1,,oops"); err == nil {
		t.Error("bad -arrival-rates accepted")
	}
	if _, err := parseIntList("1.5"); err == nil {
		t.Error("fractional -arrival-zones accepted")
	}
}

func TestRunUnknownArtifact(t *testing.T) {
	if err := run(100, 42, 0, "", "figZZ", true); err == nil {
		t.Error("unknown artifact selection accepted")
	}
}

func TestRunSweepStreamsAndResumes(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "results.jsonl")
	if err := runSweep(context.Background(), 100, 42, 4, out, false, 1, 1, 0, "", "", true); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	first := string(data)
	if len(first) == 0 {
		t.Fatal("sweep wrote no records")
	}
	// Resuming over a complete file must run zero jobs and leave it as is.
	if err := runSweep(context.Background(), 100, 42, 4, out, true, 1, 1, 0, "", "", true); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != first {
		t.Error("resume over a complete sweep modified the results file")
	}
}

func TestRunSweepResumesTornFile(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "results.jsonl")
	if err := runSweep(context.Background(), 100, 42, 2, out, false, 1, 1, 0, "", "", true); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	fullLines := len(splitLines(data))
	// Simulate a kill mid-write: keep 10 full lines plus half a record.
	lines := splitLines(data)
	torn := append([]byte{}, []byte(joinLines(lines[:10]))...)
	torn = append(torn, lines[10][:len(lines[10])/2]...)
	if err := os.WriteFile(out, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runSweep(context.Background(), 100, 42, 2, out, true, 1, 1, 0, "", "", true); err != nil {
		t.Fatalf("resume over torn file: %v", err)
	}
	data, err = os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(splitLines(data)); got != fullLines {
		t.Errorf("recovered file has %d lines, want %d", got, fullLines)
	}
	// Every line must be valid JSON again (the torn half-record is gone).
	for i, l := range splitLines(data) {
		if len(l) == 0 || l[0] != '{' || l[len(l)-1] != '}' {
			t.Fatalf("line %d malformed after recovery: %q", i, l)
		}
	}
}

func splitLines(data []byte) []string {
	return strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
}

func joinLines(lines []string) string {
	return strings.Join(lines, "\n") + "\n"
}

func TestAlgoNames(t *testing.T) {
	// Smoke check on the helper used for grid headers.
	names := algoNames(nil)
	if len(names) != 0 {
		t.Errorf("algoNames(nil) = %v", names)
	}
}

func TestSelectRoster(t *testing.T) {
	full, err := selectRoster("")
	if err != nil || len(full) != 17 {
		t.Fatalf("empty -variants → %d algos, err %v; want full 17", len(full), err)
	}
	sub, err := selectRoster("pressWR-LS, slackR")
	if err != nil {
		t.Fatal(err)
	}
	if len(sub) != 3 || sub[0].Name != "ASAP" || sub[1].Name != "pressWR-LS" || sub[2].Name != "slackR" {
		names := algoNames(sub)
		t.Fatalf("roster = %v, want [ASAP pressWR-LS slackR]", names)
	}
	if _, err := selectRoster("pressZZ"); err == nil {
		t.Error("unknown variant accepted by -variants")
	}
}
