package solve

import (
	"context"
	"testing"

	"repro/internal/dag"
	"repro/internal/platform"
	"repro/internal/wfgen"
)

// TestRepeatGuard: the body index finds an entry by length and hash and
// trusts neither. Two different bodies forced onto one key never receive
// each other's answer — the later one takes the slot, and the earlier one
// is simply no longer remembered.
func TestRepeatGuard(t *testing.T) {
	ctx := context.Background()
	solver := NewSolver(platform.Small(7))
	solver.testBodyHash = func([]byte) uint64 { return 42 }

	// Two requests, each solved twice so that both caches answer the
	// second time, under bodies of one length.
	bodies := [2][]byte{[]byte(`{"request": "A"}`), []byte(`{"request": "B"}`)}
	var answers [2]*Answer
	var hits [2]*Response
	var wf *dag.DAG
	for i := range bodies {
		var err error
		if wf, err = wfgen.Generate(wfgen.Methylseq, 30, uint64(7+i)); err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			if hits[i], err = solver.Solve(ctx, Request{Workflow: wf, Seed: 7}); err != nil {
				t.Fatal(err)
			}
			if hits[i].Repeatable() != (pass == 1) {
				t.Fatalf("request %d pass %d: Repeatable() = %v", i, pass, hits[i].Repeatable())
			}
		}
		answers[i] = &Answer{Body: []byte{byte('A' + i)}}
	}
	recalled := func(i int) *Answer {
		a, _ := solver.Recall(ctx, bodies[i])
		return a
	}

	solver.Remember(bodies[0], hits[0], answers[0])
	if got := recalled(0); got != answers[0] {
		t.Fatalf("A is remembered, and recalled as %v", got)
	}
	if got := recalled(1); got != nil {
		t.Fatalf("B was never remembered, yet recalled as %q: it shares A's key only", got.Body)
	}
	solver.Remember(bodies[1], hits[1], answers[1])
	if got := recalled(1); got != answers[1] {
		t.Fatalf("B is remembered, and recalled as %v", got)
	}
	if got := recalled(0); got != nil {
		t.Fatalf("A lost its slot to B, yet recalled as %q", got.Body)
	}
	if st := solver.Stats(); st.SolveRepeats != 2 || st.RepeatIndexBytes != int64(len(bodies[1])+1) {
		t.Errorf("stats after two recalls with B resident: %+v", st)
	}

	// A response the caches did not both answer is not remembered.
	fresh, err := solver.Solve(ctx, Request{Workflow: wf, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	solver.Remember([]byte("fresh"), fresh, &Answer{})
	if a, _ := solver.Recall(ctx, []byte("fresh")); a != nil || fresh.Repeatable() {
		t.Error("a computed response was remembered")
	}
}
