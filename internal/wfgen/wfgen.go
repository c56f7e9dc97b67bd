// Package wfgen synthesizes scientific-workflow DAGs that stand in for the
// paper's corpus: four nf-core/Nextflow bioinformatics pipelines (atacseq,
// bacass, eager, methylseq) from Bader et al., plus WfGen-style scaled
// versions with 200 to 30,000 vertices.
//
// The real traces are external data we cannot ship, so each family is
// modeled structurally: a set of per-sample lanes (linear chains with
// family-specific fork-join widths), cross-sample barrier stages, and a
// final gather step (the MultiQC-style report every nf-core pipeline ends
// with). Task and edge weights follow normal distributions with task
// weights dominating edge weights, as in Section 6.1. The scheduling
// algorithms only ever see a weighted DAG, so preserving width, depth,
// fan-in/out and the weight regime preserves the experimental behaviour.
package wfgen

import (
	"fmt"

	"repro/internal/dag"
	"repro/internal/rng"
)

// Family identifies one of the four workflow families of Section 6.1.
type Family int

const (
	Atacseq Family = iota
	Bacass
	Eager
	Methylseq
)

// Families returns all four families in the paper's order.
func Families() []Family { return []Family{Atacseq, Bacass, Eager, Methylseq} }

// String returns the nf-core pipeline name.
func (f Family) String() string {
	switch f {
	case Atacseq:
		return "atacseq"
	case Bacass:
		return "bacass"
	case Eager:
		return "eager"
	case Methylseq:
		return "methylseq"
	default:
		return fmt.Sprintf("Family(%d)", int(f))
	}
}

// RealSize returns the vertex count of the family's "real-world" instance
// (the unscaled model graph).
func (f Family) RealSize() int {
	switch f {
	case Atacseq:
		return 271
	case Bacass:
		return 57
	case Eager:
		return 113
	case Methylseq:
		return 197
	default:
		panic("wfgen: unknown family")
	}
}

// ScaledSizes returns the paper's scaled vertex counts for this family.
// atacseq and methylseq use all eleven sizes; eager scales only up to
// 18,000 vertices; bacass is used only in its real-world version
// ("due to problems with scaling").
func (f Family) ScaledSizes() []int {
	all := []int{200, 1000, 2000, 4000, 8000, 10000, 15000, 18000, 20000, 25000, 30000}
	switch f {
	case Atacseq, Methylseq:
		return all
	case Eager:
		return all[:8] // up to 18,000
	case Bacass:
		return nil
	default:
		panic("wfgen: unknown family")
	}
}

// stage describes one step of a per-sample lane. Fork > 1 creates a
// fork-join diamond: Fork parallel tasks fed by the previous step and
// merged into the next one.
type stage struct {
	name string
	fork int
}

// families' lane blueprints, modeled after the respective nf-core
// pipelines' per-sample processing.
func laneStages(f Family) []stage {
	switch f {
	case Atacseq:
		return []stage{
			{"fastqc", 1}, {"trim_galore", 2}, {"bwa_align", 1},
			{"filter_bam", 1}, {"macs2_callpeak", 1}, {"annotate_peaks", 1},
		}
	case Bacass:
		return []stage{
			{"fastp_trim", 1}, {"unicycler_assembly", 1},
			{"polish", 2}, {"prokka_annotate", 1},
		}
	case Eager:
		return []stage{
			{"adapter_removal", 1}, {"bwa_map", 1}, {"dedup", 1},
			{"damage_analysis", 3}, {"genotyping", 1},
		}
	case Methylseq:
		return []stage{
			{"fastqc", 1}, {"trim_galore", 1}, {"bismark_align", 1},
			{"deduplicate", 1}, {"methylation_extract", 2}, {"sample_report", 1},
		}
	default:
		panic("wfgen: unknown family")
	}
}

// laneSize returns the number of tasks one sample lane contributes.
func laneSize(f Family) int {
	n := 0
	for _, s := range laneStages(f) {
		n += s.fork
	}
	return n
}

// Weight distribution parameters (Section 6.1: normal distributions,
// vertex weights in general larger than edge weights). With platform
// speeds 4..32, mean task weight 120 yields runtimes of roughly 4..30
// time units.
const (
	taskWeightMean   = 120
	taskWeightStddev = 40
	taskWeightMin    = 8
	edgeWeightMean   = 10
	edgeWeightStddev = 4
	edgeWeightMin    = 1
)

func taskWeight(r *rng.RNG) int64 {
	return r.PositiveNormalInt(taskWeightMean, taskWeightStddev, taskWeightMin)
}

func edgeWeight(r *rng.RNG) int64 {
	return r.PositiveNormalInt(edgeWeightMean, edgeWeightStddev, edgeWeightMin)
}

// Generate builds a workflow of the given family with exactly n vertices.
// The same (family, n, seed) always yields the same graph.
func Generate(f Family, n int, seed uint64) (*dag.DAG, error) {
	if n < 4 {
		return nil, fmt.Errorf("wfgen: n=%d too small; need at least 4 tasks", n)
	}
	r := rng.New(rng.Mix(seed, uint64(f)<<32|uint64(uint32(n))))
	stages := laneStages(f)
	perLane := laneSize(f)

	// Fixed tasks: one pipeline-wide setup source and one MultiQC-style
	// gather sink. Everything else is per-sample lanes plus filler
	// analyses used to hit n exactly.
	const fixed = 2
	samples := (n - fixed) / perLane
	if samples < 1 {
		samples = 1
	}

	b := newBuilder(f, r)

	// Tiny workflows (below one full lane) get a truncated single lane so
	// any n ≥ 4 is constructible; used for exact-solver comparisons.
	if perLane+fixed > n {
		setup := b.addTask("prepare_genome")
		prev := []int{setup}
		remaining := n - fixed
		for _, st := range stages {
			if remaining == 0 {
				break
			}
			width := st.fork
			if width > remaining {
				width = remaining
			}
			cur := make([]int, width)
			for k := range cur {
				cur[k] = b.addTask(fmt.Sprintf("%s_s0_%d", st.name, k))
				for _, p := range prev {
					b.addEdge(p, cur[k])
				}
			}
			prev = cur
			remaining -= width
		}
		gather := b.addTask("multiqc")
		for _, e := range prev {
			b.addEdge(e, gather)
		}
		d := b.build()
		if d.N() != n {
			return nil, fmt.Errorf("wfgen: built %d tasks, want %d", d.N(), n)
		}
		if err := d.Validate(); err != nil {
			return nil, fmt.Errorf("wfgen: generated invalid DAG: %w", err)
		}
		return d, nil
	}

	setup := b.addTask("prepare_genome")

	var laneEnds []int
	var allLaneTasks []int
	for s := 0; s < samples; s++ {
		// Stop adding full lanes if they would overflow n (keep room for
		// the gather task).
		if b.n()+perLane+1 > n && s > 0 {
			break
		}
		prev := []int{setup}
		for _, st := range stages {
			cur := make([]int, st.fork)
			for k := range cur {
				name := fmt.Sprintf("%s_s%d", st.name, s)
				if st.fork > 1 {
					name = fmt.Sprintf("%s_%d", name, k)
				}
				cur[k] = b.addTask(name)
				for _, p := range prev {
					b.addEdge(p, cur[k])
				}
			}
			prev = cur
			allLaneTasks = append(allLaneTasks, cur...)
		}
		laneEnds = append(laneEnds, prev...)
	}

	gather := b.addTask("multiqc")
	for _, e := range laneEnds {
		b.addEdge(e, gather)
	}

	// Filler: extra per-sample analyses (e.g. additional QC or plotting
	// steps) hanging off random lane tasks and feeding the gather, until
	// the graph has exactly n tasks.
	for b.n() < n {
		src := allLaneTasks[r.Intn(len(allLaneTasks))]
		extra := b.addTask(fmt.Sprintf("extra_analysis_%d", b.n()))
		b.addEdge(src, extra)
		b.addEdge(extra, gather)
	}

	d := b.build()
	if d.N() != n {
		return nil, fmt.Errorf("wfgen: built %d tasks, want %d", d.N(), n)
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("wfgen: generated invalid DAG: %w", err)
	}
	return d, nil
}

// GenerateReal builds the family's real-world-sized instance.
func GenerateReal(f Family, seed uint64) (*dag.DAG, error) {
	return Generate(f, f.RealSize(), seed)
}

// builder accumulates tasks and edges before materializing the DAG, so the
// number of tasks is known only at the end.
type builder struct {
	family Family
	r      *rng.RNG
	names  []string
	wts    []int64
	edges  []dag.Edge
}

func newBuilder(f Family, r *rng.RNG) *builder {
	return &builder{family: f, r: r}
}

func (b *builder) n() int { return len(b.names) }

func (b *builder) addTask(name string) int {
	b.names = append(b.names, name)
	b.wts = append(b.wts, taskWeight(b.r))
	return len(b.names) - 1
}

func (b *builder) addEdge(u, v int) {
	b.edges = append(b.edges, dag.Edge{From: u, To: v, Weight: edgeWeight(b.r)})
}

func (b *builder) build() *dag.DAG {
	tasks := make([]dag.Task, len(b.names))
	for i, name := range b.names {
		tasks[i] = dag.Task{ID: i, Name: name, Weight: b.wts[i]}
	}
	return dag.FromEdges(tasks, b.edges)
}
