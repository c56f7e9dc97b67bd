package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"time"

	cawosched "repro"
)

// The run protocol. A run sets its workload up several times (setup_s is
// the median), warms up on a prefix of the op sequence, then replays the
// whole sequence in measured rounds. Every round starts from the same
// program state and is preceded by a collection, both outside the clock.
// Latencies are reduced op by op over the rounds (bestPerOp) before any
// percentile is taken.
type protocol struct {
	setups     int // set-ups per run
	minRounds  int // measured rounds per run, whatever -seconds says
	maxRounds  int
	warmShare  int // the warm-up round replays the first 1/warmShare of the ops
	tracedEach int // -trace: untraced and traced rounds, alternating
}

// standard is the protocol of every run that reports numbers; tests run a
// shorter one.
var standard = protocol{setups: 3, minRounds: 6, maxRounds: 8, warmShare: 4, tracedEach: 2}

// size scales a workload. The defaults are the benchmark; tests run the
// same code on tiny sizes.
type size struct {
	ops       int // ops per round
	tasks     int // tasks per workflow
	workflows int // distinct workflows
	probe     int // a traced round replays every probe-th op through the layers
}

// runner is one set-up workload: inputs generated, bodies encoded,
// servers up, caches warm.
type runner interface {
	ops() int
	// round puts the program in the workload's start state, replays the
	// first n ops and checks what they returned. With a tracer it also
	// records spans and replays sampled ops through the layers.
	round(n int, tr *tracer) (*roundResult, error)
	// close stops everything setup started and waits for it.
	close() error
}

type workload struct {
	name  string
	why   string
	size  size
	setup func(seed uint64, sz size) (runner, error)
	// onPath lists the layer spans that a call of this workload passes
	// through; unattributed is the metric that takes call − Σ onPath.
	onPath       []string
	unattributed string
	openLoop     bool // ops are sent on a schedule, not when the previous one returns
}

// roundResult is what one round saw.
type roundResult struct {
	lat      []float64 // ms per op; from the due time in an open loop
	start    time.Time
	mem      memSnapshot
	wall     time.Duration
	failed   int
	firstErr error
	cost     int64 // Σ carbon cost of the returned schedules
	baseline int64 // Σ cost of the baseline the ratio is taken against
	digest   uint64

	// samples holds per-layer observations by metric name; a metric's
	// round value is the samples' median (p95 for a *_p95 name).
	samples map[string][]float64
	// probes are the ops a traced round replayed through the layers.
	probes []probeSample
}

func newRoundResult(n int) *roundResult {
	return &roundResult{lat: make([]float64, 0, n), samples: make(map[string][]float64)}
}

func (r *roundResult) fail(op int, err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = fmt.Errorf("op %d: %w", op, err)
	}
}

func (r *roundResult) sample(name string, v float64) {
	r.samples[name] = append(r.samples[name], v)
}

func ms(d time.Duration) float64     { return float64(d.Nanoseconds()) / 1e6 }
func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// memSnapshot reads the allocator's counters; it stops the world, so it
// is only ever taken between rounds.
type memSnapshot struct {
	alloc uint64
	gcs   uint32
}

func readMem() memSnapshot {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnapshot{alloc: m.TotalAlloc, gcs: m.NumGC}
}

// rssHighWaterMB reads the process's peak resident set from the kernel.
func rssHighWaterMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if fields := bytes.Fields(line); len(fields) == 3 && string(fields[0]) == "VmHWM:" {
			if kb, err := strconv.ParseFloat(string(fields[1]), 64); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// begin starts the round's clock; end stops it. The allocator's counters
// are read just outside the clock on both sides, so allocation per op
// counts the ops and the client side of their calls and nothing the
// harness does before or after. A traced round's probes allocate inside
// the clock, so it reports no allocation.
func (r *roundResult) begin() {
	r.mem = readMem()
	r.start = time.Now()
}

func (r *roundResult) end(ops int, traced bool) {
	r.wall = time.Since(r.start)
	if after := readMem(); !traced && ops > 0 {
		r.sample("process.alloc_kb_per_op", float64(after.alloc-r.mem.alloc)/1024/float64(ops))
		r.sample("process.gc_cycles_per_kop", float64(after.gcs-r.mem.gcs)*1000/float64(ops))
	}
}

// measured runs one round after a collection.
func measured(r runner, tr *tracer) (*roundResult, error) {
	runtime.GC()
	return r.round(r.ops(), tr)
}

// report is a finished run of one workload.
type report struct {
	endToEnd map[string]float64
	perLayer map[string]float64
	correct  bool
	problems []string
	attempt  int
	failed   int
	table    string // traced runs: layers + unattributed = call
	trace    string // traced runs: path of the span file
}

// runWorkload performs one run: set-ups, warm-up, measured rounds.
func runWorkload(w workload, p protocol, seed uint64, seconds float64, traced bool, outDir string, log io.Writer) (*report, error) {
	var (
		r          runner
		warm       *roundResult
		setupTimes []float64
	)
	for i := 0; i < p.setups; i++ {
		if r != nil {
			if err := r.close(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if r, err = w.setup(seed, w.size); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		if warm, err = r.round(max(r.ops()/p.warmShare, 1), nil); err != nil {
			r.close()
			return nil, fmt.Errorf("%s: warm-up: %w", w.name, err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	defer r.close()

	rep := &report{endToEnd: map[string]float64{"setup_s": median(setupTimes)}, perLayer: make(map[string]float64), correct: true}
	if warm.failed > 0 {
		rep.problem("warm-up: %d ops failed, first: %v", warm.failed, warm.firstErr)
	}

	var plain, withTrace []*roundResult
	var tr *tracer
	if traced {
		// One span per op, call and layer; sized so that recording never
		// grows the slice inside a round.
		tr = newTracer(p.tracedEach * r.ops() * 24)
		for i := 0; i < p.tracedEach; i++ {
			u, err := measured(r, nil)
			if err != nil {
				return nil, err
			}
			t, err := measured(r, tr)
			if err != nil {
				return nil, err
			}
			plain, withTrace = append(plain, u), append(withTrace, t)
		}
	} else {
		perRound := warm.wall.Seconds() * float64(p.warmShare)
		rounds := min(max(int(seconds/perRound), p.minRounds), p.maxRounds)
		for i := 0; i < rounds; i++ {
			u, err := measured(r, nil)
			if err != nil {
				return nil, err
			}
			plain = append(plain, u)
			fmt.Fprintf(log, "%s: round %d/%d: %d ops in %.2fs, p50 %.3f ms\n", w.name, i+1, rounds, len(u.lat), u.wall.Seconds(), median(u.lat))
		}
	}

	if err := rep.endToEndFrom(w, plain); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	for _, res := range append(append([]*roundResult(nil), plain...), withTrace...) {
		rep.attempt += len(res.lat)
		rep.failed += res.failed
		if res.failed > 0 {
			rep.problem("%d ops failed, first: %v", res.failed, res.firstErr)
		}
		if res.cost > res.baseline {
			rep.problem("the round's schedules cost %d, more than their baseline's %d", res.cost, res.baseline)
		}
		if res.digest != plain[0].digest {
			rep.problem("round digest %x differs from the first round's %x: rounds did not replay identically", res.digest, plain[0].digest)
		}
	}
	if traced {
		rep.perLayerFrom(w, plain, withTrace)
		path, err := tr.write(outDir, w.name)
		if err != nil {
			return nil, fmt.Errorf("%s: writing trace: %w", w.name, err)
		}
		rep.trace = path
	}
	return rep, nil
}

func (rep *report) problem(format string, args ...any) {
	rep.correct = false
	rep.problems = append(rep.problems, fmt.Sprintf(format, args...))
}

// bestPerOp returns, per op of the sequence, the op's latency in the round
// where it was shortest. Every round replays the same ops from the same
// state, so an op's latencies differ between rounds only by what else the
// host was doing; that interference only ever adds time, and on a shared
// sandbox it adds 10–20% to memory-bound code in bursts that last from
// milliseconds to seconds. The minimum over the rounds removes it op by
// op. It also removes what does not recur at the same op: a collection
// starts a few ops earlier or later from round to round, so the
// collector's cost shows here only in part, and in full in the exact
// process.* metrics.
func bestPerOp(rounds []*roundResult) []float64 {
	best := append([]float64(nil), rounds[0].lat...)
	for _, r := range rounds[1:] {
		for i, l := range r.lat {
			best[i] = min(best[i], l)
		}
	}
	return best
}

// endToEndFrom reduces the untraced rounds to the end-to-end metrics.
func (rep *report) endToEndFrom(w workload, rounds []*roundResult) error {
	best := bestPerOp(rounds)
	p95, err := tail(best, 0.95)
	if err != nil {
		return err
	}
	rep.endToEnd["latency_ms_p50"] = median(best)
	rep.endToEnd["latency_ms_p95"] = p95

	// A closed loop's throughput is its ops over the time they took. An
	// open loop's is set by its schedule unless a backlog grows, so there
	// it is ops over the wall time of the round.
	rep.endToEnd["ops_per_s"] = 1000 / mean(best)
	if w.openLoop {
		var rates []float64
		for _, r := range rounds {
			rates = append(rates, float64(len(r.lat)-r.failed)/r.wall.Seconds())
		}
		rep.endToEnd["ops_per_s"] = median(rates)
	}
	first := rounds[0]
	rep.endToEnd["carbon_cost_ratio"] = float64(first.cost) / float64(first.baseline)
	for _, r := range rounds {
		if r.cost != first.cost || r.baseline != first.baseline {
			rep.problem("a round's costs %d/%d differ from the first round's %d/%d", r.cost, r.baseline, first.cost, first.baseline)
		}
	}
	return nil
}

// count adds to a metric that is one exact number per round.
func (r *roundResult) count(name string, v float64) {
	if len(r.samples[name]) == 0 {
		r.samples[name] = []float64{0}
	}
	r.samples[name][0] += v
}

// sampleStages records the in-band stage timings a response carried: the
// program's own account of the stages the harness times from outside.
func (r *roundResult) sampleStages(s summary) {
	for _, t := range s.timings {
		r.sample("solver.stage_us."+t.Stage, float64(t.Micros))
	}
}

// solverCounts records what the solver's caches did during the round.
func (r *roundResult) solverCounts(before, after cawosched.SolverStats) {
	ratio := func(hits, misses int64) float64 {
		if hits+misses == 0 {
			return 0
		}
		return float64(hits) / float64(hits+misses)
	}
	r.count("solver.plan_hit_ratio", ratio(after.PlanHits-before.PlanHits, after.PlanMisses-before.PlanMisses))
	r.count("solver.solve_hit_ratio", ratio(after.SolveHits-before.SolveHits, after.SolveMisses-before.SolveMisses))
	r.count("solver.coalesced", float64(after.SolveCoalesced-before.SolveCoalesced))
}
