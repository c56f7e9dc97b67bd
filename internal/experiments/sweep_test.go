package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/scherr"
	"repro/internal/wfgen"
)

// sweepTestJobs is a small grid: 3 specs × the first algorithms of the
// roster, enough to exercise grouping and ordering.
func sweepTestJobs(algos int) []Job {
	roster := Algorithms()
	var specs []Spec
	for i, sc := range []power.Scenario{power.S1, power.S3, power.S4} {
		specs = append(specs, Spec{
			Family: wfgen.Bacass, N: 40, Cluster: Small, Scenario: sc,
			DeadlineFactor: []float64{1.5, 2, 3}[i], Seed: 42,
		})
	}
	var jobs []Job
	for _, s := range specs {
		for _, a := range roster[:algos] {
			jobs = append(jobs, Job{Spec: s, Algo: a.Name})
		}
	}
	return jobs
}

// stripTiming blanks the non-deterministic elapsed field so record streams
// from different worker counts can be compared for identity.
func stripTiming(recs []SweepRecord) []SweepRecord {
	out := append([]SweepRecord(nil), recs...)
	for i := range out {
		out[i].ElapsedMicros = 0
	}
	return out
}

// TestSweepDeterministicOrder is the worker-pool determinism property: the
// JSONL stream under 8 workers must list the same jobs with the same costs
// in the same order as under 1 worker (run with -race in CI).
func TestSweepDeterministicOrder(t *testing.T) {
	jobs := sweepTestJobs(5)
	run := func(workers int) ([]SweepRecord, []Result) {
		var buf bytes.Buffer
		results, _, err := Sweep(context.Background(), jobs, Algorithms(), &buf, SweepOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		recs, err := ReadSweepRecords(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return recs, results
	}
	recs1, res1 := run(1)
	recs8, res8 := run(8)
	if len(recs1) != len(jobs) || len(recs8) != len(jobs) {
		t.Fatalf("record counts %d/%d, want %d", len(recs1), len(recs8), len(jobs))
	}
	s1, s8 := stripTiming(recs1), stripTiming(recs8)
	for i := range s1 {
		if s1[i] != s8[i] {
			t.Fatalf("record %d diverges across worker counts:\n1: %+v\n8: %+v", i, s1[i], s8[i])
		}
	}
	// Records must follow grid order, and results must match them.
	for i, rec := range recs1 {
		if rec.Algo != jobs[i].Algo || rec.Scenario != jobs[i].Spec.Scenario.String() {
			t.Fatalf("record %d out of grid order: %+v vs job %+v", i, rec, jobs[i])
		}
	}
	if len(res1) != len(res8) {
		t.Fatalf("result counts differ: %d vs %d", len(res1), len(res8))
	}
	for i := range res1 {
		if res1[i].Spec != res8[i].Spec || res1[i].Algo != res8[i].Algo || res1[i].Cost != res8[i].Cost {
			t.Fatalf("result %d differs across worker counts", i)
		}
	}
}

func TestSweepMatchesSequentialRunner(t *testing.T) {
	// The sweep's costs must agree with a plain serial loop: one build per
	// spec, then every algorithm in roster order.
	jobs := sweepTestJobs(4)
	var buf bytes.Buffer
	swept, failed, err := Sweep(context.Background(), jobs, Algorithms(), &buf, SweepOptions{Workers: 3})
	if err != nil || len(failed) > 0 {
		t.Fatalf("sweep: err %v, failed %v", err, failed)
	}
	costs := map[string]int64{}
	for _, spec := range []Spec{jobs[0].Spec, jobs[4].Spec, jobs[8].Spec} {
		in, err := BuildInstance(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range Algorithms()[:4] {
			cost, err := runBest(context.Background(), in, a)
			if err != nil {
				t.Fatal(err)
			}
			costs[jobKey(spec, a.Name)] = cost
		}
	}
	if len(swept) != len(costs) {
		t.Fatalf("%d swept results, %d serial", len(swept), len(costs))
	}
	for _, r := range swept {
		want, ok := costs[jobKey(r.Spec, r.Algo)]
		if !ok || r.Cost != want {
			t.Errorf("cost mismatch for %s/%s: sweep %d, serial %d (found %v)", r.Spec, r.Algo, r.Cost, want, ok)
		}
	}
}

func TestSweepIsolatesPanicsAndErrors(t *testing.T) {
	jobs := sweepTestJobs(1) // 3 ASAP jobs
	roster := []Algorithm{
		{Name: BaselineName, Run: func(ctx context.Context, in *Instance) (*schedule.Schedule, error) {
			panic("boom")
		}},
	}
	var buf bytes.Buffer
	results, failed, err := Sweep(context.Background(), jobs, roster, &buf, SweepOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 0 {
		t.Fatalf("panicking algorithm yielded %d results", len(results))
	}
	// The caller hears of every failure too, in grid order, by job key.
	if len(failed) != len(jobs) {
		t.Fatalf("%d failures reported, want %d", len(failed), len(jobs))
	}
	for i, ferr := range failed {
		if want := "experiments: " + jobs[i].Key() + ": panic: boom"; ferr.Error() != want {
			t.Errorf("failure %d = %q, want %q", i, ferr, want)
		}
	}
	recs, err := ReadSweepRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(jobs) {
		t.Fatalf("%d records, want %d", len(recs), len(jobs))
	}
	for i, rec := range recs {
		if !strings.Contains(rec.Err, "panic: boom") {
			t.Errorf("record %d err = %q, want panic", i, rec.Err)
		}
	}
	// Unknown algorithms are reported in-band too.
	var buf2 bytes.Buffer
	if _, _, err := Sweep(context.Background(), []Job{{Spec: jobs[0].Spec, Algo: "nope"}}, Algorithms(), &buf2, SweepOptions{}); err != nil {
		t.Fatal(err)
	}
	recs2, _ := ReadSweepRecords(&buf2)
	if len(recs2) != 1 || !strings.Contains(recs2[0].Err, "unknown algorithm") {
		t.Errorf("unknown algorithm records = %+v", recs2)
	}
}

func TestSweepTimeout(t *testing.T) {
	jobs := sweepTestJobs(1)[:1]
	roster := []Algorithm{
		{Name: BaselineName, Run: func(ctx context.Context, in *Instance) (*schedule.Schedule, error) {
			// A ctx-honoring slow job, like the real roster under a
			// -job-timeout deadline.
			select {
			case <-time.After(2 * time.Second):
				return nil, nil
			case <-ctx.Done():
				return nil, scherr.Canceled(ctx.Err())
			}
		}},
	}
	var buf bytes.Buffer
	start := time.Now()
	results, _, err := Sweep(context.Background(), jobs, roster, &buf, SweepOptions{Workers: 1, Timeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("timeout did not fire: sweep took %s", took)
	}
	if len(results) != 0 {
		t.Fatal("timed-out job produced a result")
	}
	recs, _ := ReadSweepRecords(&buf)
	if len(recs) != 1 || !strings.Contains(recs[0].Err, "timeout") {
		t.Errorf("records = %+v, want one timeout", recs)
	}
}

func TestSweepResume(t *testing.T) {
	jobs := sweepTestJobs(3)
	var full bytes.Buffer
	if _, _, err := Sweep(context.Background(), jobs, Algorithms(), &full, SweepOptions{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadSweepRecords(&full)
	if err != nil {
		t.Fatal(err)
	}
	// Pretend the first 4 jobs finished before an interruption.
	done := SweepDoneKeys(recs[:4])
	if len(done) != 4 {
		t.Fatalf("done keys = %d, want 4", len(done))
	}
	var rest bytes.Buffer
	if _, _, err := Sweep(context.Background(), jobs, Algorithms(), &rest, SweepOptions{Workers: 4, Skip: done}); err != nil {
		t.Fatal(err)
	}
	restRecs, err := ReadSweepRecords(&rest)
	if err != nil {
		t.Fatal(err)
	}
	if len(restRecs) != len(jobs)-4 {
		t.Fatalf("resumed sweep emitted %d records, want %d", len(restRecs), len(jobs)-4)
	}
	want := stripTiming(recs[4:])
	got := stripTiming(restRecs)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("resumed record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	// The stitched stream (prefix + resumed tail) must round-trip into the
	// same results as the uninterrupted run.
	stitched, err := SweepResults(append(append([]SweepRecord(nil), recs[:4]...), restRecs...))
	if err != nil {
		t.Fatal(err)
	}
	fullRes, err := SweepResults(recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(stitched) != len(fullRes) {
		t.Fatalf("stitched %d results, want %d", len(stitched), len(fullRes))
	}
	for i := range stitched {
		if stitched[i].Spec != fullRes[i].Spec || stitched[i].Cost != fullRes[i].Cost {
			t.Fatalf("stitched result %d diverges", i)
		}
	}
}

func TestReadSweepRecordsToleratesTornTail(t *testing.T) {
	jobs := sweepTestJobs(2)
	var buf bytes.Buffer
	if _, _, err := Sweep(context.Background(), jobs, Algorithms(), &buf, SweepOptions{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	full := buf.String()
	lines := strings.SplitAfter(strings.TrimSuffix(full, "\n"), "\n")
	// Tear the last record in half, as a killed process would.
	torn := strings.Join(lines[:len(lines)-1], "") + lines[len(lines)-1][:10]
	recs, err := ReadSweepRecords(strings.NewReader(torn))
	if err != nil {
		t.Fatalf("torn tail not tolerated: %v", err)
	}
	if len(recs) != len(jobs)-1 {
		t.Fatalf("got %d records from torn file, want %d", len(recs), len(jobs)-1)
	}
	// Corruption before the end must still be rejected.
	bad := "{garbage\n" + full
	if _, err := ReadSweepRecords(strings.NewReader(bad)); err == nil {
		t.Error("mid-file corruption accepted")
	}
}

func TestGridShape(t *testing.T) {
	names := []string{"ASAP", "pressWR-LS"}
	jobs := MappingGrid(100, 42, 2, 1, nil, names)
	specs := Corpus(100, 42)
	if want := 2 * len(specs) * len(names); len(jobs) != want {
		t.Fatalf("grid has %d jobs, want %d", len(jobs), want)
	}
	// Replicate 0 keeps the base seed; replicate 1 derives a new one, and
	// both halves enumerate the same spec shapes in the same order.
	half := len(jobs) / 2
	if jobs[0].Spec.Seed != 42 {
		t.Errorf("replicate 0 seed = %d", jobs[0].Spec.Seed)
	}
	if jobs[half].Spec.Seed == 42 {
		t.Error("replicate 1 reused the base seed")
	}
	if ReplicateSeed(42, 1) != jobs[half].Spec.Seed {
		t.Error("replicate seed not reproducible")
	}
	keys := map[string]bool{}
	for _, j := range jobs {
		if keys[j.Key()] {
			t.Fatalf("duplicate job key %s", j.Key())
		}
		keys[j.Key()] = true
	}
}

// ExampleSweep runs a two-job sweep and shows the streamed JSONL schema.
func ExampleSweep() {
	spec := Spec{Family: wfgen.Bacass, N: 30, Cluster: Small, Scenario: power.S1, DeadlineFactor: 2, Seed: 7}
	jobs := []Job{{Spec: spec, Algo: "ASAP"}, {Spec: spec, Algo: "pressWR-LS"}}
	var buf bytes.Buffer
	results, _, err := Sweep(context.Background(), jobs, Algorithms(), &buf, SweepOptions{Workers: 2})
	if err != nil {
		fmt.Println(err)
		return
	}
	recs, _ := ReadSweepRecords(&buf)
	fmt.Println("jobs:", len(jobs), "records:", len(recs))
	fmt.Println("first algo:", recs[0].Algo)
	fmt.Println("carbon-aware beats baseline:", results[1].Cost < results[0].Cost)
	// Output:
	// jobs: 2 records: 2
	// first algo: ASAP
	// carbon-aware beats baseline: true
}

// TestSweepTimeoutLeaksNoGoroutines pins the fix for the old watchdog
// design, where a timed-out job's goroutine kept running to completion
// unobserved. Timeouts are now context deadlines executed synchronously on
// the worker, so after Sweep returns no scheduling goroutine survives.
func TestSweepTimeoutLeaksNoGoroutines(t *testing.T) {
	jobs := sweepTestJobs(1) // 3 jobs
	roster := []Algorithm{
		{Name: BaselineName, Run: func(ctx context.Context, in *Instance) (*schedule.Schedule, error) {
			select {
			case <-time.After(time.Minute): // would leak for a minute under the old design
				return nil, nil
			case <-ctx.Done():
				return nil, scherr.Canceled(ctx.Err())
			}
		}},
	}
	before := runtime.NumGoroutine()
	var buf bytes.Buffer
	if _, _, err := Sweep(context.Background(), jobs, roster, &buf, SweepOptions{Workers: 2, Timeout: 10 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	// Give the pool's own goroutines a moment to unwind.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines grew from %d to %d after a timed-out sweep", before, after)
	}
	recs, _ := ReadSweepRecords(&buf)
	if len(recs) != len(jobs) {
		t.Fatalf("%d records, want %d", len(recs), len(jobs))
	}
	for i, rec := range recs {
		if !strings.Contains(rec.Err, "timeout") {
			t.Errorf("record %d err = %q, want timeout", i, rec.Err)
		}
	}
}

// TestSweepCancellation: canceling the sweep context mid-grid stops the
// sweep promptly, returns a context.Canceled-satisfying error, and leaves
// the JSONL stream a clean in-order prefix that -resume can extend.
func TestSweepCancellation(t *testing.T) {
	jobs := sweepTestJobs(17) // full roster × 3 specs
	ctx, cancel := context.WithCancel(context.Background())
	release := make(chan struct{})
	var once sync.Once
	roster := Algorithms()
	// Wrap the first algorithm so the sweep blocks until we cancel.
	orig := roster[0].Run
	roster[0].Run = func(ctx context.Context, in *Instance) (*schedule.Schedule, error) {
		once.Do(func() { cancel(); close(release) })
		<-release
		return orig(ctx, in)
	}
	var buf bytes.Buffer
	_, _, err := Sweep(ctx, jobs, roster, &buf, SweepOptions{Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled sweep returned err = %v, want context.Canceled", err)
	}
	if !errors.Is(err, scherr.ErrCanceled) {
		t.Fatalf("canceled sweep err = %v, want scherr.ErrCanceled too", err)
	}
	recs, rerr := ReadSweepRecords(&buf)
	if rerr != nil {
		t.Fatalf("canceled sweep left a corrupt stream: %v", rerr)
	}
	if len(recs) >= len(jobs) {
		t.Fatalf("canceled sweep completed all %d jobs", len(jobs))
	}
	// The emitted records must be the grid prefix, in order.
	for i, rec := range recs {
		if rec.Algo != jobs[i].Algo {
			t.Fatalf("record %d out of grid order after cancel: %q vs %q", i, rec.Algo, jobs[i].Algo)
		}
	}
	// Resume must pick up exactly the missing jobs.
	skip := SweepDoneKeys(recs)
	var rest bytes.Buffer
	if _, _, err := Sweep(context.Background(), jobs, Algorithms(), &rest, SweepOptions{Workers: 2, Skip: skip}); err != nil {
		t.Fatal(err)
	}
	restRecs, err := ReadSweepRecords(&rest)
	if err != nil {
		t.Fatal(err)
	}
	ok := 0
	for _, rec := range recs {
		if rec.Err == "" {
			ok++
		}
	}
	if got, want := ok+len(restRecs), len(jobs); got != want {
		t.Fatalf("prefix (%d ok) + resumed (%d) = %d records, want %d", ok, len(restRecs), got, want)
	}
}

// TestForEachCanceled: canceling the pool's context stops the dispatch of
// further indices, the call returns the cancellation, and no worker
// goroutine outlives it.
func TestForEachCanceled(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	var mu sync.Mutex
	ran := 0
	err := forEach(ctx, 1000, 3, func(i int) error {
		mu.Lock()
		ran++
		mu.Unlock()
		switch {
		case i == 5:
			cancel()
		case i > 5:
			<-ctx.Done() // hold the other workers until the cancel
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) || !errors.Is(err, scherr.ErrCanceled) {
		t.Fatalf("canceled pool returned %v, want the cancellation", err)
	}
	// Indices 0..5 ran, plus the two other workers' held indices and at
	// most one index the dispatcher sent as the cancel landed.
	if ran < 6 || ran > 9 {
		t.Errorf("%d calls ran, want 6 to 9 of 1000", ran)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines grew from %d to %d", before, after)
	}
}

// TestForEachLowestIndexError: every index runs, and the error of the
// lowest failed index wins whatever order the workers finish in.
func TestForEachLowestIndexError(t *testing.T) {
	var mu sync.Mutex
	ran := map[int]bool{}
	err := forEach(context.Background(), 50, 4, func(i int) error {
		mu.Lock()
		ran[i] = true
		mu.Unlock()
		if i == 7 || i == 31 {
			return fmt.Errorf("cell %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "cell 7" {
		t.Errorf("err = %v, want cell 7", err)
	}
	if len(ran) != 50 {
		t.Errorf("%d of 50 indices ran", len(ran))
	}
	if err := forEach(context.Background(), 0, 4, func(int) error { return errors.New("ran") }); err != nil {
		t.Errorf("empty pool: %v", err)
	}
}
