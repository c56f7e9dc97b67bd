package main

import (
	"bufio"
	"encoding/json"
	"os"
	"testing"
)

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "op", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "wait", StartNS: 0, EndNS: 30},
		{ID: 3, Parent: 1, Name: "call", StartNS: 30, EndNS: 90},
		{ID: 4, Parent: 3, Name: "inner", StartNS: 40, EndNS: 60},
		// Overlapping children are covered once; a child that runs past
		// its parent is clipped to it.
		{ID: 5, Parent: 6, Name: "a", StartNS: 210, EndNS: 250},
		{ID: 6, Parent: 0, Name: "replay", StartNS: 200, EndNS: 300},
		{ID: 7, Parent: 6, Name: "b", StartNS: 240, EndNS: 270},
		{ID: 8, Parent: 6, Name: "late", StartNS: 290, EndNS: 350},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 10, 2: 30, 3: 40, 4: 20, 5: 40, 6: 30, 7: 30, 8: 60}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestTracerWritesOneSpanPerLine(t *testing.T) {
	tr := newTracer(4)
	root := tr.begin(0, 7, "replay")
	child := tr.begin(root, 7, "wire.decode")
	if d := tr.end(child); d < 0 {
		t.Errorf("duration %v", d)
	}
	tr.end(root)
	path, err := tr.write(t.TempDir(), "unit")
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var got []span
	for sc := bufio.NewScanner(f); sc.Scan(); {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		got = append(got, s)
	}
	if len(got) != 2 || got[1].Parent != got[0].ID || got[1].Op != 7 || got[1].Name != "wire.decode" {
		t.Fatalf("read back %+v", got)
	}
	if got[1].StartNS < got[0].StartNS || got[1].EndNS > got[0].EndNS {
		t.Errorf("child [%d, %d] not inside parent [%d, %d]", got[1].StartNS, got[1].EndNS, got[0].StartNS, got[0].EndNS)
	}
}
