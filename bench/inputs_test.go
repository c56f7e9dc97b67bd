package main

import (
	"bytes"
	"fmt"
	"testing"
)

// tiny sizes run the real code in milliseconds; ops stays at 200 so that
// p95 keeps its ten samples beyond.
var tiny = map[string]size{
	"solve_cold_1k":  {ops: 200, tasks: 100, probe: 40},
	"serve_hot_200":  {ops: 200, tasks: 100, workflows: 4, probe: 40},
	"serve_mix_200":  {ops: 200, tasks: 100, workflows: 4, probe: 20},
	"admit_churn_60": {ops: 200, tasks: 60, workflows: 8, probe: 20},
}

// describe renders a set-up runner's op sequence: which workflow, which
// supply seed, which class, in which order.
func describe(t *testing.T, r runner) string {
	t.Helper()
	var b bytes.Buffer
	switch r := r.(type) {
	case *coldRunner:
		for _, op := range append(append([]solveOp(nil), r.lead...), r.opsSeq...) {
			fmt.Fprintf(&b, "%x/%d ", op.wf.Fingerprint(), op.seed)
		}
	case *hotRunner:
		for _, k := range r.seq {
			b.Write(r.bodies[k])
		}
	case *mixRunner:
		for _, op := range r.seq {
			fmt.Fprintf(&b, "%d:", op.class)
			b.Write(op.body)
		}
	case *churnRunner:
		for _, wf := range r.wfs {
			fmt.Fprintf(&b, "%x ", wf.Fingerprint())
		}
		fmt.Fprint(&b, r.seq)
	default:
		t.Fatalf("unknown runner %T", r)
	}
	return b.String()
}

func TestOpSequenceIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var got [3]string
			for i, seed := range []uint64{1, 1, 2} {
				r, err := w.setup(seed, tiny[w.name])
				if err != nil {
					t.Fatal(err)
				}
				got[i] = describe(t, r)
				if err := r.close(); err != nil {
					t.Fatal(err)
				}
			}
			if got[0] != got[1] {
				t.Error("the same seed gave two different op sequences")
			}
			if got[0] == got[2] {
				t.Error("seeds 1 and 2 gave the same op sequence")
			}
		})
	}
}

func TestShuffledBlocksKeepExactShares(t *testing.T) {
	seq := shuffledBlocks(newRand(5, "test"), 200, classBlock(14, 5, 1))
	counts := make(map[int]int)
	for _, c := range seq {
		counts[c]++
	}
	if len(seq) != 200 || counts[0] != 140 || counts[1] != 50 || counts[2] != 10 {
		t.Errorf("200 ops in blocks of 14/5/1 gave %v", counts)
	}
}
