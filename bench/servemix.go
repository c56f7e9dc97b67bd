package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"
)

// serve_mix_200: an open loop. Independent clients do not wait for each
// other, so ops are sent on a schedule whatever the server is doing, and
// an op's latency counts from the moment it was due: the wait a slow op
// imposes on the ops behind it is part of what those ops' users see.
var serveMix = workload{
	name:         "serve_mix_200",
	why:          "open loop at 200 req/s of cache hits, fresh supplies on planned workflows and map-searches: the only workload with queueing, and it reads and writes the caches at once",
	size:         size{ops: 600, tasks: 200, workflows: 8, probe: 5},
	setup:        setupServeMix,
	onPath:       servePath,
	unattributed: "server.unattributed_us",
	openLoop:     true,
}

const (
	mixRate  = 200 // ops due per second
	mixConns = 2
	// mixLate is how long after its due time an op may finish before it
	// counts as failed. On a quiet host the slowest op, a map-search behind
	// a fresh solve, is done 25 ms after it was due, but a shared host
	// stalls a sandbox for up to 300 ms now and then. A second is only
	// reached when the backlog grows through the round, which is what the
	// limit is for.
	mixLate = time.Second
)

// Op classes of the mix, and their shares per block of 20 ops.
const (
	classHot = iota
	classFresh
	classMapSearch
)

var (
	mixBlock = classBlock(14, 5, 1)
	mixNames = []string{"hot", "fresh", "mapsearch"}
)

type mixOp struct {
	class int
	key   int // hot: index of the hot key
	body  []byte
}

type mixRunner struct {
	*hotSet
	spin *spinners
	sz   size
	seq  []mixOp
}

func setupServeMix(seed uint64, sz size) (runner, error) {
	spin, err := startSpinners()
	if err != nil {
		return nil, err
	}
	h, err := newHotSet(sz, mixConns)
	if err != nil {
		return nil, errors.Join(err, spin.stop())
	}
	r := newRand(seed, "serve_mix_200")
	classes := shuffledBlocks(r, sz.ops, mixBlock)
	counts := make([]int, len(mixNames))
	for _, class := range classes {
		counts[class]++
	}
	// The misses of the population: per class, as many solves as the
	// sequence has ops of the class, workflows in rotation, each with a
	// supply seed nothing else uses.
	pop := newRand(popSeed, "serve_mix_200")
	misses := make([][][]byte, len(mixNames))
	for _, class := range []int{classFresh, classMapSearch} {
		for i := 0; i < counts[class]; i++ {
			miss := solveOp{wf: h.wfs[i%len(h.wfs)], seed: pop.Uint64(), zones: serveZones, mapSearch: class == classMapSearch}
			body, err := miss.body()
			if err != nil {
				return nil, errors.Join(err, h.fx.close(), spin.stop())
			}
			misses[class] = append(misses[class], body)
		}
		r.Shuffle(len(misses[class]), func(i, j int) {
			misses[class][i], misses[class][j] = misses[class][j], misses[class][i]
		})
	}
	hot := balanced(r, counts[classHot], len(h.keys))
	m := &mixRunner{hotSet: h, spin: spin, sz: sz}
	for _, class := range classes {
		op := mixOp{class: class}
		if class == classHot {
			op.key, hot = hot[0], hot[1:]
			op.body = h.bodies[op.key]
		} else {
			op.body, misses[class] = misses[class][0], misses[class][1:]
		}
		m.seq = append(m.seq, op)
	}
	return m, nil
}

func (m *mixRunner) ops() int     { return len(m.seq) }
func (m *mixRunner) close() error { return errors.Join(m.fx.close(), m.spin.stop()) }

// sent is one op as its sender saw it.
type sent struct {
	due, free, send, end time.Time
	httpAnswer
}

func (m *mixRunner) round(n int, tr *tracer) (*roundResult, error) {
	// Start state: no cached solve, no plan but the hot keys'. The fresh
	// ops of the round before would otherwise be hits in this one.
	m.fx.solver.ResetSolveCache()
	m.fx.solver.ResetPlans()
	if _, err := m.warm(); err != nil {
		return nil, err
	}
	before := m.fx.solver.Stats()

	res := newRoundResult(n)
	ops := make([]sent, n)
	interval := time.Second / mixRate
	res.begin()
	start := res.start.Add(10 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < mixConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			free := start
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				o := &ops[i]
				o.due, o.free = start.Add(time.Duration(i)*interval), free
				if wait := time.Until(o.due); wait > 0 {
					time.Sleep(wait)
				}
				o.send = time.Now()
				o.status, o.body, o.err = m.fx.solve(m.seq[i].body, m.dst(i))
				o.end = time.Now()
				free = o.end
			}
		}()
	}
	wg.Wait()
	res.end(n, tr != nil)
	after := m.fx.solver.Stats()
	dig := fnv.New64a()
	for i := range ops {
		o, class := &ops[i], m.seq[i].class
		latency := o.end.Sub(o.due)
		res.lat = append(res.lat, ms(latency))
		res.sample("serve_mix."+mixNames[class]+"_ms_p50", ms(latency))
		res.sample("serve_mix.wait_ms_p95", ms(o.send.Sub(o.due)))
		// The generator is late by what it added itself: the sender was
		// free and the op was due, and it still had not been sent.
		ready := o.due
		if o.free.After(ready) {
			ready = o.free
		}
		res.sample("bench.generator_late_ms_p95", ms(o.send.Sub(ready)))
		if class == classMapSearch {
			res.sample("greenheft.mapsearch_us", micros(o.end.Sub(o.send)))
		}
		if o.err != nil {
			res.fail(i, o.err)
			continue
		}
		s, err := checkHTTP(o.status, o.body, class == classHot)
		if err != nil {
			res.fail(i, err)
			continue
		}
		if latency > mixLate {
			res.fail(i, fmt.Errorf("finished %v after it was due, limit %v", latency, mixLate))
		}
		res.cost += s.cost
		res.baseline += s.asapCost
		fmt.Fprintln(dig, i, s.cost, s.deadline)
		res.sampleStages(s)

		if tr != nil {
			tr.op(i, o.due, o.send, o.end)
		}
	}
	res.digest = dig.Sum64()
	if tr == nil {
		res.solverCounts(before, after)
		return res, nil
	}

	// Replaying inside the loop would hold a connection while ops come
	// due and change the queueing under measurement, so the sampled hot
	// ops are replayed once the round is over; a cache hit's layers do
	// not depend on when they run.
	hot := 0
	for i := range ops {
		if m.seq[i].class != classHot || ops[i].err != nil {
			continue
		}
		if hot++; hot%m.sz.probe != 0 {
			continue
		}
		s, err := checkHTTP(ops[i].status, ops[i].body, true)
		if err != nil {
			continue // already counted as failed above
		}
		if err := m.probeHot(tr, i, m.seq[i].key, micros(ops[i].end.Sub(ops[i].send)), s.cost, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}
