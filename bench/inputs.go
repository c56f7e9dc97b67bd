package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand/v2"

	cawosched "repro"
	"repro/internal/wire"
)

// Everything a workload feeds the program is generated here, and the
// program only ever sees the generated inputs. Each workload draws a
// population — workflows, supply seeds, hot keys — from popSeed, and the
// run's seed decides which member of the population each op of the
// sequence is. The populations are the same for every run seed on
// purpose: what a solve costs in time and in carbon depends on the
// workflow drawn, and a benchmark whose numbers move by several percent
// with the draw cannot hold a bound of a few percent. With the population
// fixed and every member used equally often, carbon_cost_ratio is the
// same number for every seed, and two seeds time the same work in two
// different orders.

const (
	clusterSeed = 42
	popSeed     = 1
	variant     = "pressWR-LS"
)

var families = []cawosched.Family{cawosched.Atacseq, cawosched.Bacass, cawosched.Eager, cawosched.Methylseq}

// zoneScenarios gives zone z the supply shape S(z+1), so the zones'
// green windows do not coincide and moving work between them matters.
func zoneScenarios(zones int) []cawosched.Scenario {
	all := []cawosched.Scenario{cawosched.S1, cawosched.S2, cawosched.S3, cawosched.S4}
	return all[:zones]
}

// newRand derives an independent stream per (seed, purpose), so adding a
// draw to one workload never shifts another workload's inputs.
func newRand(seed uint64, purpose string) *rand.Rand {
	stream := fnv.New64a()
	stream.Write([]byte(purpose))
	return rand.New(rand.NewPCG(seed, stream.Sum64()))
}

// genWorkflows returns count workflows of the given size, families in
// rotation, each from its own seed.
func genWorkflows(r *rand.Rand, count, tasks int) ([]*cawosched.DAG, error) {
	wfs := make([]*cawosched.DAG, count)
	for i := range wfs {
		wf, err := cawosched.GenerateWorkflow(families[i%len(families)], tasks, r.Uint64())
		if err != nil {
			return nil, fmt.Errorf("generating workflow %d: %w", i, err)
		}
		wfs[i] = wf
	}
	return wfs, nil
}

// solveOp is one solve of a workflow against a generated supply. The same
// op can be issued as a library request or as an HTTP body.
type solveOp struct {
	wf        *cawosched.DAG
	seed      uint64 // supply seed
	zones     int
	mapSearch bool
	deadline  float64 // deadline factor; 0 is the solver's default of 2
}

func (o solveOp) request() cawosched.Request {
	return cawosched.Request{
		Workflow:       o.wf,
		Variant:        variant,
		ZoneScenarios:  zoneScenarios(o.zones),
		MapSearch:      o.mapSearch,
		DeadlineFactor: o.deadline,
		Seed:           o.seed,
	}
}

// body is the op as a POST /v1/solve body.
func (o solveOp) body() ([]byte, error) {
	w := &wire.SolveRequest{Workflow: wire.FromDAG(o.wf), Variant: variant, DeadlineFactor: o.deadline, Seed: o.seed}
	for _, sc := range zoneScenarios(o.zones) {
		w.ZoneScenarios = append(w.ZoneScenarios, sc.String())
	}
	if o.mapSearch {
		w.Mapping = cawosched.MapSearchName
	}
	return json.Marshal(w)
}

// balanced returns n picks among k items in seeded order, every item
// picked ⌊n/k⌋ or ⌈n/k⌉ times, the same items getting the extra pick for
// every seed.
func balanced(r *rand.Rand, n, k int) []int {
	picks := make([]int, n)
	for i := range picks {
		picks[i] = i % k
	}
	r.Shuffle(n, func(i, j int) { picks[i], picks[j] = picks[j], picks[i] })
	return picks
}

// shuffledBlocks repeats a block of op classes until n ops exist and
// shuffles each block on its own: the class shares are exact for every
// seed and a class can bunch up by at most two blocks' worth, so the seed
// chooses the order without choosing how hard the round is.
func shuffledBlocks(r *rand.Rand, n int, block []int) []int {
	out := make([]int, 0, n+len(block))
	for len(out) < n {
		b := append([]int(nil), block...)
		r.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		out = append(out, b...)
	}
	return out[:n]
}

func classBlock(counts ...int) []int {
	var b []int
	for class, c := range counts {
		for i := 0; i < c; i++ {
			b = append(b, class)
		}
	}
	return b
}
