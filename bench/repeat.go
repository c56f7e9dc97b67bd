package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
)

// runChild runs one workload once in a process of its own, as the driver
// does, and returns the result it printed last.
func runChild(exe, workload string, seed uint64, seconds float64, trace int) (*result, error) {
	cmd := exec.Command(exe,
		"-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line is not a result: %w", workload, seed, err)
	}
	if !res.Correct || res.Failed > 0 {
		return nil, fmt.Errorf("%s seed %d: correct %v, %d of %d ops failed", workload, seed, res.Correct, res.Failed, res.Attempted)
	}
	return &res, nil
}

// repeatRuns runs two interleaved sets (A B A B …) of n full runs of the
// same code, run i of either set on seed+i, and reports per metric each
// set's median and quartiles. The sets disagree — and the exit code is
// not 0 — when an end-to-end metric's two medians differ by more than the
// metric's bound, or when an exact metric differs at all between the two
// runs of one seed.
func repeatRuns(ws []workload, n int, seed uint64, seconds float64, traced bool) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	modes := []int{0}
	if traced {
		modes = append(modes, 1)
	}
	type key struct{ workload, metric string }
	var sets [2]map[key][]float64
	for s := range sets {
		sets[s] = make(map[key][]float64)
	}
	for i := 0; i < n; i++ {
		for s := range sets {
			for _, w := range ws {
				for _, trace := range modes {
					res, err := runChild(exe, w.name, seed+uint64(i), seconds, trace)
					if err != nil {
						fmt.Fprintln(os.Stderr, "bench:", err)
						return 1
					}
					for name, v := range res.Metrics {
						k := key{w.name, name}
						sets[s][k] = append(sets[s][k], v.Value)
					}
				}
			}
			fmt.Fprintf(os.Stderr, "bench: run %d of set %c done\n", i+1, 'A'+s)
		}
	}

	code := 0
	defs := endToEnd
	if traced {
		defs = append(append([]metricDef(nil), endToEnd...), perLayer...)
	}
	for _, w := range ws {
		fmt.Printf("%s\n  %-30s %-6s %12s %12s %12s %8s | %12s %8s | %7s\n", w.name,
			"metric", "unit", "A median", "A q1", "A q3", "A iqr%", "B median", "B iqr%", "B-A %")
		for _, d := range defs {
			a, b := sets[0][key{w.name, d.name}], sets[1][key{w.name, d.name}]
			aq1, _, aq3 := quartiles(a)
			amed, bmed := median(a), median(b)
			diff := (bmed - amed) / amed * 100
			verdict := ""
			switch {
			case d.exact && !slices.Equal(a, b):
				verdict, code = "  EXACT METRIC DIFFERS", 1
			case d.bound > 0 && math.Abs(diff) > d.bound*100:
				verdict, code = fmt.Sprintf("  MEDIANS DIFFER BY MORE THAN %g%%", d.bound*100), 1
			}
			fmt.Printf("  %-30s %-6s %12.4f %12.4f %12.4f %8.2f | %12.4f %8.2f | %7.2f%s\n",
				d.name, d.unit, amed, aq1, aq3, spread(a)*100, bmed, spread(b)*100, diff, verdict)
		}
	}
	return code
}
