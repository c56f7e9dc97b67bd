// Command bench is the repository's benchmark: four replay workloads on
// one P, five end-to-end metrics, and a per-layer trace taken from
// outside the program. README.md has the protocol and the reasons.
//
//	go run . -workload solve_cold_1k -seed 1 -seconds 20 -trace 0
//
// Without -workload it runs all four. -repeat N runs the whole benchmark
// 2N times in two interleaved sets and fails when the sets disagree.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
)

var workloads = []workload{solveCold, serveHot, serveMix, admitChurn}

func main() {
	if len(os.Args) == 2 && os.Args[1] == spinArg {
		spin()
		return
	}
	// One P for server, load generator and collector alike. On the second
	// vCPU of a small sandbox the collector's cost hides or shows depending
	// on what else the host runs; on one P it lands in the measured latency
	// every time.
	runtime.GOMAXPROCS(1)

	name := flag.String("workload", "", "workload to run (default: all four)")
	seed := flag.Uint64("seed", 1, "seed every generated input derives from")
	seconds := flag.Float64("seconds", 20, "time to measure for; sets the number of rounds")
	trace := flag.Int("trace", 0, "1: run the traced protocol and print the per-layer metrics")
	out := flag.String("out", ".bench_build", "directory the span files are written to")
	repeat := flag.Int("repeat", 0, "run two interleaved sets of this many full runs and compare them")
	flag.Parse()

	selected := workloads
	if *name != "" {
		selected = nil
		for _, w := range workloads {
			if w.name == *name {
				selected = []workload{w}
			}
		}
		if selected == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
	}
	if *repeat > 0 {
		os.Exit(repeatRuns(selected, *repeat, *seed, *seconds, *trace == 1))
	}

	code := 0
	for _, w := range selected {
		rep, err := runWorkload(w, standard, *seed, *seconds, *trace == 1, *out, os.Stderr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		defs, got := endToEnd, rep.endToEnd
		if *trace == 1 {
			defs, got = perLayer, rep.perLayer
			fmt.Print(rep.table)
			fmt.Println("spans:", rep.trace)
		}
		for _, p := range rep.problems {
			fmt.Fprintf(os.Stderr, "bench: %s: %s\n", w.name, p)
		}
		res, err := newResult(defs, got, rep.correct, rep.attempt, rep.failed)
		if err == nil {
			err = res.print(os.Stdout, w.name, defs)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		if !rep.correct {
			code = 1
		}
	}
	os.Exit(code)
}
