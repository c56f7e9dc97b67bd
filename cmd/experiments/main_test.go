package main

import (
	"context"
	"encoding/csv"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// runArtifacts runs artifact mode quietly with the default seed, workers,
// zone count and arrival options.
func runArtifacts(maxTasks int, outDir, only string) error {
	arr := arrivalOpts{rates: "0.5,1,2", zones: "2,4", arrivals: 12}
	return run(context.Background(), maxTasks, 42, 0, outDir, only, 1, true, arr)
}

func TestRunSingleArtifact(t *testing.T) {
	dir := t.TempDir()
	if err := runArtifacts(150, dir, "table1"); err != nil {
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
	if err := runArtifacts(100, dir, "fig1,fig4"); err != nil {
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
	if err := runArtifacts(100, dir, "ablations"); err != nil {
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
	if err := run(context.Background(), 30, 42, 0, dir, "arrival", 1, true, arr); err != nil {
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
	if err := runArtifacts(100, "", "figZZ"); err == nil {
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
		names := experiments.AlgoNames(sub)
		t.Fatalf("roster = %v, want [ASAP pressWR-LS slackR]", names)
	}
	if _, err := selectRoster("pressZZ"); err == nil {
		t.Error("unknown variant accepted by -variants")
	}
}

// TestArtifactsIndependentOfWorkers: artifact mode writes the same CSVs
// at any -workers, apart from timing. The running-time figures and every
// column whose name ends in _s are measurements, not results, and are
// left out of the comparison.
func TestArtifactsIndependentOfWorkers(t *testing.T) {
	const only = "fig1,fig4,table2,ablations,robustness,mapping,arrival"
	arr := arrivalOpts{rates: "1,4", zones: "1,2", arrivals: 3}
	dirs := []string{t.TempDir(), t.TempDir()}
	for i, workers := range []int{1, 3} {
		if err := run(context.Background(), 60, 42, workers, dirs[i], only, 1, true, arr); err != nil {
			t.Fatalf("-workers %d: %v", workers, err)
		}
	}
	entries, err := os.ReadDir(dirs[0])
	if err != nil {
		t.Fatal(err)
	}
	compared := 0
	for _, e := range entries {
		name := e.Name()
		if name == "fig8.csv" || name == "fig12.csv" || name == "fig13.csv" {
			continue
		}
		want, got := readUntimedCSV(t, filepath.Join(dirs[0], name)), readUntimedCSV(t, filepath.Join(dirs[1], name))
		if !slices.EqualFunc(want, got, slices.Equal) {
			t.Errorf("%s differs between -workers 1 and 3:\n%v\n%v", name, want, got)
		}
		compared++
	}
	if compared < 12 {
		t.Errorf("compared only %d CSVs", compared)
	}
}

// readUntimedCSV reads a CSV artifact without its *_s columns.
func readUntimedCSV(t *testing.T, path string) [][]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	var keep []int
	for i, col := range rows[0] {
		if !strings.HasSuffix(col, "_s") {
			keep = append(keep, i)
		}
	}
	out := make([][]string, len(rows))
	for r, row := range rows {
		for _, i := range keep {
			out[r] = append(out[r], row[i])
		}
	}
	return out
}
