package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseFamily(t *testing.T) {
	for _, name := range []string{"atacseq", "bacass", "eager", "methylseq"} {
		if f, err := parseFamily(name); err != nil || f.String() != name {
			t.Errorf("parseFamily(%q) = %v, %v", name, f, err)
		}
	}
	if _, err := parseFamily("montage"); err == nil {
		t.Error("unknown family accepted")
	}
}

func TestParseScenario(t *testing.T) {
	for _, name := range []string{"S1", "s2", "S3", "s4"} {
		if _, err := parseScenario(name); err != nil {
			t.Errorf("parseScenario(%q): %v", name, err)
		}
	}
	if _, err := parseScenario("S5"); err == nil {
		t.Error("unknown scenario accepted")
	}
}

func TestSelectVariants(t *testing.T) {
	all, err := selectVariants("all")
	if err != nil || len(all) != 16 {
		t.Errorf("all → %d variants, err %v", len(all), err)
	}
	one, err := selectVariants("pressWR-LS")
	if err != nil || len(one) != 1 || one[0] != "pressWR-LS" {
		t.Errorf("pressWR-LS → %v, %v", one, err)
	}
	none, err := selectVariants("asap")
	if err != nil || len(none) != 0 {
		t.Errorf("asap → %v, %v", none, err)
	}
	if _, err := selectVariants("bogus"); err == nil {
		t.Error("unknown variant accepted")
	} else if !strings.Contains(err.Error(), "pressWR-LS") {
		t.Errorf("error should list valid names: %v", err)
	}
}

func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "s.json")
	csvPath := filepath.Join(dir, "s.csv")
	err := run(context.Background(), "bacass", 30, "", "small", 1, "S1", "", "", 2, "heft", "pressWR-LS", 7, false, false, jsonPath, csvPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{jsonPath, csvPath} {
		st, err := os.Stat(p)
		if err != nil {
			t.Errorf("%s not written: %v", p, err)
		} else if st.Size() == 0 {
			t.Errorf("%s empty", p)
		}
	}
}

func TestRunMultiZoneEndToEnd(t *testing.T) {
	// Generated per-zone scenarios on a 2-zone split.
	if err := run(context.Background(), "bacass", 30, "", "small", 2, "S1", "S1,S2", "", 2, "heft", "pressWR-LS", 7, false, false, "", ""); err != nil {
		t.Fatal(err)
	}
	// Per-zone intensity traces, one CSV per zone.
	dir := t.TempDir()
	a := filepath.Join(dir, "a.csv")
	b := filepath.Join(dir, "b.csv")
	if err := os.WriteFile(a, []byte("offset,intensity\n0,400\n30,100\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(b, []byte("offset,intensity\n0,50\n40,300\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), "bacass", 30, "", "small", 2, "S1", "", a+","+b, 2, "heft", "slack", 7, false, false, "", ""); err != nil {
		t.Fatal(err)
	}
	// One trace for two zones is a configuration error.
	if err := run(context.Background(), "bacass", 30, "", "small", 2, "S1", "", a, 2, "heft", "slack", 7, false, false, "", ""); err == nil {
		t.Error("one intensity trace accepted for two zones")
	}
	// Mismatched zone scenario count too.
	if err := run(context.Background(), "bacass", 30, "", "small", 2, "S1", "S1,S2,S3", "", 2, "heft", "slack", 7, false, false, "", ""); err == nil {
		t.Error("three zone scenarios accepted for two zones")
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	if err := run(context.Background(), "bogus", 30, "", "small", 1, "S1", "", "", 2, "heft", "all", 1, false, false, "", ""); err == nil {
		t.Error("bad family accepted")
	}
	if err := run(context.Background(), "bacass", 30, "", "medium", 1, "S1", "", "", 2, "heft", "all", 1, false, false, "", ""); err == nil {
		t.Error("bad cluster accepted")
	}
	if err := run(context.Background(), "bacass", 30, "", "small", 1, "S9", "", "", 2, "heft", "all", 1, false, false, "", ""); err == nil {
		t.Error("bad scenario accepted")
	}
	if err := run(context.Background(), "bacass", 30, "", "small", 1, "S1", "", "", 0.5, "heft", "all", 1, false, false, "", ""); err == nil {
		t.Error("deadline factor < 1 accepted")
	}
	if err := run(context.Background(), "bacass", 30, "/nonexistent/path.dot", "small", 1, "S1", "", "", 2, "heft", "all", 1, false, false, "", ""); err == nil {
		t.Error("missing dot file accepted")
	}
}

func TestRunFromDOTFile(t *testing.T) {
	dir := t.TempDir()
	dot := filepath.Join(dir, "wf.dot")
	src := "n0 -> n1\nn0 -> n2\nn1 -> n3\nn2 -> n3\n"
	if err := os.WriteFile(dot, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), "", 0, dot, "small", 1, "S4", "", "", 1.5, "heft", "slack", 3, false, false, "", ""); err != nil {
		t.Fatal(err)
	}
}
