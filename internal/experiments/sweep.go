package experiments

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"repro/internal/rng"
	"repro/internal/scherr"
)

// The sweep engine runs the full evaluation grid — family × size × cluster
// × scenario × deadline × variant × seed — as independent jobs on a worker
// pool. Each job is isolated (panics and timeouts become in-band error
// records instead of aborting the sweep), results stream as JSONL in
// deterministic grid order regardless of worker interleaving, and a
// finished or interrupted stream can be resumed by skipping the job keys
// already on disk.

// Job is one cell of the sweep grid: a fully specified instance plus one
// algorithm name from the roster.
type Job struct {
	Spec Spec
	Algo string
}

// Key identifies the job across runs; resume matches keys of completed
// records against the grid.
func (j Job) Key() string { return jobKey(j.Spec, j.Algo) }

func jobKey(s Spec, algo string) string {
	return fmt.Sprintf("%s|seed%d|%s", s, s.Seed, algo)
}

// ReplicateSeed derives the deterministic seed of replicate r from the
// base seed: replicate 0 is the base itself (so single-seed sweeps match
// the classic corpus), later replicates are splitmix-derived. The seed
// depends only on (base, r), never on worker scheduling.
func ReplicateSeed(base uint64, r int) uint64 {
	if r == 0 {
		return base
	}
	return rng.Mix(base, uint64(r))
}

// Jobs crosses specs with algorithm names, spec-major, so consecutive
// jobs share one instance build.
func Jobs(specs []Spec, algos []string) []Job {
	jobs := make([]Job, 0, len(specs)*len(algos))
	for _, spec := range specs {
		for _, a := range algos {
			jobs = append(jobs, Job{Spec: spec, Algo: a})
		}
	}
	return jobs
}

// MappingGrid enumerates the sweep deterministically: replicate seeds ×
// multi-zone corpus specs (family × size × cluster × scenario × deadline,
// see MultiZoneCorpus; zones < 2 is the paper's single-zone grid) ×
// mappings × algorithms, spec-major so consecutive jobs share one
// instance build. maxTasks caps the workflow sizes exactly like Corpus.
// Every cell is replicated once per requested mapping: nil, "" or "fixed"
// keeps the fixed-HEFT cell and its legacy job key, while policy names and
// MapSearch append /m<mapping> to the key. All mappings of a cell schedule
// against the identical per-zone supply, so their costs are directly
// comparable.
func MappingGrid(maxTasks int, baseSeed uint64, replicates, zones int, mappings, algos []string) []Job {
	if replicates < 1 {
		replicates = 1
	}
	if len(mappings) == 0 {
		mappings = []string{""}
	}
	var specs []Spec
	for r := 0; r < replicates; r++ {
		for _, spec := range MultiZoneCorpus(maxTasks, ReplicateSeed(baseSeed, r), zones) {
			for _, m := range mappings {
				if m == "fixed" {
					m = ""
				}
				spec.Mapping = m
				specs = append(specs, spec)
			}
		}
	}
	return Jobs(specs, algos)
}

// SweepOptions tunes a Sweep run.
type SweepOptions struct {
	// Workers is the worker-pool size (≤ 0 uses GOMAXPROCS).
	Workers int
	// Timeout caps each job's scheduling wall-clock time; 0 means no cap.
	// The cap is enforced as a per-job context deadline — the scheduler
	// observes the cancellation and returns, so no goroutine outlives its
	// job. A timed-out job is recorded with an error and the sweep moves on.
	Timeout time.Duration
	// Skip holds job keys to leave out (resume: SweepDoneKeys of the
	// records already on disk). Skipped jobs emit no record.
	Skip map[string]bool
	// Progress, if non-nil, is called after each job's record is written.
	Progress func(done, total int)
}

// sweepItem carries one finished job from a worker to the sequencer.
type sweepItem struct {
	seq    int // emission position among non-skipped jobs
	jobIdx int
	rec    SweepRecord
	res    Result
	err    error // the job's failure, nil on success
}

// Sweep executes the jobs on a worker pool and streams one JSONL record
// per job to w in grid order (a sequencer reorders worker output, so the
// stream is byte-stable across worker counts except for timing fields).
// Instances are built once per run of consecutive jobs sharing a spec.
// Job failures — scheduler errors, invalid schedules, panics, timeouts —
// are recorded in-band: they are excluded from the returned Results and
// reported in failed, one error per failed job in grid order, each
// reading "experiments: <job key>: <cause>". Sweep itself fails only on
// I/O errors or cancellation. A caller that needs every job to succeed
// (artifact mode) treats failed[0] as its error.
//
// Canceling ctx stops the sweep mid-grid: in-flight jobs observe the
// cancellation through their job context and return, remaining jobs are
// skipped without emitting records (so the JSONL stream stays an in-order
// prefix a later -resume can extend), and Sweep returns the partial
// results with an error satisfying errors.Is(err, context.Canceled).
func Sweep(ctx context.Context, jobs []Job, roster []Algorithm, w io.Writer, opt SweepOptions) (results []Result, failed []error, err error) {
	byName := make(map[string]Algorithm, len(roster))
	for _, a := range roster {
		byName[a.Name] = a
	}

	// Partition into runs of consecutive jobs on the same spec and assign
	// emission order to the jobs that will actually run.
	type group struct {
		spec Spec
		idxs []int
	}
	var groups []group
	emitSeq := make([]int, len(jobs))
	total := 0
	for i, j := range jobs {
		if opt.Skip[j.Key()] {
			emitSeq[i] = -1
			continue
		}
		emitSeq[i] = total
		total++
		if len(groups) == 0 || groups[len(groups)-1].spec != j.Spec {
			groups = append(groups, group{spec: j.Spec})
		}
		g := &groups[len(groups)-1]
		g.idxs = append(g.idxs, i)
	}

	items := make(chan sweepItem)
	go func() {
		// Jobs report their failures in-band, and a cancellation is read
		// from ctx once the stream is drained.
		_ = forEach(ctx, len(groups), opt.Workers, func(gi int) error {
			runSweepGroup(ctx, groups[gi].spec, groups[gi].idxs, jobs, byName, opt.Timeout, emitSeq, items)
			return nil
		})
		close(items)
	}()

	// Sequencer: buffer out-of-order items and write strictly in grid
	// order, so the JSONL stream is deterministic under any -parallel N.
	bw := bufio.NewWriter(w)
	pending := make(map[int]sweepItem)
	next := 0
	var ioErr error
	for it := range items {
		pending[it.seq] = it
		for {
			cur, found := pending[next]
			if !found {
				break
			}
			delete(pending, next)
			if cur.err == nil {
				results = append(results, cur.res)
			} else {
				failed = append(failed, fmt.Errorf("experiments: %s: %w", jobs[cur.jobIdx].Key(), cur.err))
			}
			if ioErr == nil {
				ioErr = writeSweepRecord(bw, cur.rec)
				if ioErr == nil {
					ioErr = bw.Flush() // stream line by line
				}
			}
			next++
			if opt.Progress != nil {
				opt.Progress(next, total)
			}
		}
	}
	if ioErr != nil {
		return nil, nil, fmt.Errorf("experiments: sweep output: %w", ioErr)
	}
	if err := ctx.Err(); err != nil {
		return results, failed, scherr.Canceled(err)
	}
	return results, failed, nil
}

// sweepStrict runs every algorithm on every spec through Sweep for a
// table that needs every cell: the stream is discarded and the first
// failed job, in grid order, is the error.
func sweepStrict(ctx context.Context, specs []Spec, algos []Algorithm, workers int) ([]Result, error) {
	results, failed, err := Sweep(ctx, Jobs(specs, AlgoNames(algos)), algos, io.Discard, SweepOptions{Workers: workers})
	if err == nil && len(failed) > 0 {
		err = failed[0]
	}
	return results, err
}

// runSweepGroup builds the group's instance once and runs each of its
// jobs, emitting exactly one item per job. When the sweep context is
// canceled the remaining jobs of the group are skipped without emitting,
// so the sequencer's output stays an in-order prefix of the grid.
func runSweepGroup(ctx context.Context, spec Spec, idxs []int, jobs []Job, byName map[string]Algorithm, timeout time.Duration, emitSeq []int, out chan<- sweepItem) {
	if ctx.Err() != nil {
		return
	}
	in, buildErr := buildInstanceSafe(spec)
	for _, ji := range idxs {
		if ctx.Err() != nil {
			return
		}
		j := jobs[ji]
		rec := recordOf(Result{Spec: j.Spec, Algo: j.Algo})
		var res Result
		var err error
		a, known := byName[j.Algo]
		switch {
		case buildErr != nil:
			err = buildErr
		case !known:
			err = fmt.Errorf("unknown algorithm %q", j.Algo)
		default:
			var cost int64
			var elapsed time.Duration
			cost, elapsed, err = runJob(ctx, in, a, timeout)
			if err != nil && ctx.Err() != nil {
				return // sweep canceled mid-job; drop, the job re-runs on resume
			}
			rec.ElapsedMicros = elapsed.Microseconds()
			rec.Cost = cost
			res = Result{Spec: j.Spec, Algo: j.Algo, Cost: cost, Elapsed: elapsed}
		}
		if err != nil {
			rec.Err = err.Error()
		}
		out <- sweepItem{seq: emitSeq[ji], jobIdx: ji, rec: rec, res: res, err: err}
	}
}

func buildInstanceSafe(spec Spec) (in *Instance, err error) {
	defer func() {
		if p := recover(); p != nil {
			in, err = nil, fmt.Errorf("building instance: panic: %v", p)
		}
	}()
	return BuildInstance(spec)
}

// runJob executes one algorithm with panic isolation and an optional
// wall-clock cap, enforced as a context deadline: the scheduler's periodic
// context polls make it return shortly after the deadline, so nothing
// keeps running unobserved after a timeout. The job runs synchronously on
// the calling worker. Only the cancellation error itself is relabeled as
// a timeout; a genuine failure (panic, invalid schedule) racing the
// deadline keeps its own error.
func runJob(ctx context.Context, in *Instance, a Algorithm, timeout time.Duration) (int64, time.Duration, error) {
	if timeout <= 0 {
		return runJobDirect(ctx, in, a)
	}
	jctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	cost, elapsed, err := runJobDirect(jctx, in, a)
	if (errors.Is(err, scherr.ErrCanceled) || errors.Is(err, jctx.Err())) &&
		jctx.Err() == context.DeadlineExceeded && ctx.Err() == nil {
		err = fmt.Errorf("timeout after %s", timeout)
	}
	return cost, elapsed, err
}

// runJobDirect measures only the scheduling time, excluding instance
// construction, matching the paper's running-time methodology (map-search
// jobs time all candidate mappings — the search is the algorithm).
func runJobDirect(ctx context.Context, in *Instance, a Algorithm) (cost int64, elapsed time.Duration, err error) {
	start := time.Now()
	defer func() {
		if p := recover(); p != nil {
			cost, elapsed, err = 0, time.Since(start), fmt.Errorf("panic: %v", p)
		}
	}()
	cost, err = runBest(ctx, in, a)
	return cost, time.Since(start), err
}

// forEach runs fn(i) for every i in [0, n) on workers goroutines (≤ 0
// uses GOMAXPROCS), handing out indices in ascending order. It is the
// package's one worker pool: Sweep dispatches its spec groups through
// it, and every study whose cells are not (spec, algorithm) → cost jobs
// runs one cell per index. Canceling ctx stops the dispatch of further
// indices; calls already running finish. The result is the error of the
// lowest failed index, else the cancellation (errors.Is
// context.Canceled and scherr.ErrCanceled) if ctx ended before every
// index ran, else nil.
func forEach(ctx context.Context, n, workers int, fn func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	errs := make([]error, n)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = fn(i)
			}
		}()
	}
	dispatched := 0
	for dispatched < n && ctx.Err() == nil {
		select {
		case next <- dispatched:
			dispatched++
		case <-ctx.Done():
		}
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if err := ctx.Err(); err != nil && dispatched < n {
		return scherr.Canceled(err)
	}
	return nil
}
