package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"time"

	cawosched "repro"
	"repro/internal/server"
)

const (
	serveZones    = 3
	seedsPerGraph = 8 // hot keys per workflow: one workflow under 8 supplies
)

// fixture is an in-process schedd on a loopback socket and the client
// that loads it. Server and client share the process's one P.
type fixture struct {
	cluster *cawosched.Cluster
	solver  *cawosched.Solver
	http    *http.Server
	served  chan error
	client  *http.Client
	base    string
}

func newFixture(conns int) (*fixture, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	cluster := cawosched.SmallZonedCluster(clusterSeed, serveZones)
	solver := cawosched.NewSolver(cluster)
	f := &fixture{
		cluster: cluster,
		solver:  solver,
		http:    &http.Server{Handler: server.New(solver, server.Config{})},
		served:  make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
		}},
		base: "http://" + ln.Addr().String(),
	}
	go func() { f.served <- f.http.Serve(ln) }()
	return f, nil
}

// close shuts the server down and waits until Serve has returned.
func (f *fixture) close() error {
	f.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := f.http.Shutdown(ctx)
	if serr := <-f.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// do sends one request and reads the answer into dst's memory. It returns
// when the last byte of the body has been read.
func (f *fixture) do(method, path string, body []byte, dst []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, f.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	got, err := readInto(resp.Body, dst)
	return resp.StatusCode, got, err
}

func (f *fixture) solve(body, dst []byte) (int, []byte, error) {
	return f.do(http.MethodPost, "/v1/solve", body, dst)
}

// readInto reads r to its end into dst, memory set aside before the round
// began, so that keeping a round's answers for checking costs the round
// no allocation. A body that outgrows dst spills into a new slice.
func readInto(r io.Reader, dst []byte) ([]byte, error) {
	n := 0
	for n < len(dst) {
		m, err := r.Read(dst[n:])
		n += m
		if err == io.EOF {
			return dst[:n], nil
		}
		if err != nil {
			return dst[:n], err
		}
	}
	rest, err := io.ReadAll(r)
	return append(dst[:n:n], rest...), err
}

// hotSet is what the two serving workloads share: a server, a few
// workflows, and the hot keys — each workflow under several supply seeds
// — with their bodies encoded and their answers cached.
type hotSet struct {
	fx     *fixture
	wfs    []*cawosched.DAG
	keys   []solveOp
	bodies [][]byte
	slot   int    // bytes set aside per answer
	arena  []byte // ops × slot
	probe  *prober
}

func newHotSet(sz size, conns int) (*hotSet, error) {
	pop := newRand(popSeed, "serve.hot_keys")
	wfs, err := genWorkflows(pop, sz.workflows, sz.tasks)
	if err != nil {
		return nil, err
	}
	fx, err := newFixture(conns)
	if err != nil {
		return nil, err
	}
	h := &hotSet{fx: fx, wfs: wfs}
	for _, wf := range wfs {
		for s := 0; s < seedsPerGraph; s++ {
			op := solveOp{wf: wf, seed: pop.Uint64(), zones: serveZones}
			body, err := op.body()
			if err != nil {
				fx.close()
				return nil, err
			}
			h.keys, h.bodies = append(h.keys, op), append(h.bodies, body)
		}
	}
	largest, err := h.warm()
	if err != nil {
		fx.close()
		return nil, err
	}
	// Answers for one workflow differ in length by a few digits; a quarter
	// on top covers a map-search answer with a different mapping.
	h.slot = largest + largest/4 + 1024
	h.arena = make([]byte, sz.ops*h.slot)
	for i := 0; i < len(h.arena); i += 4096 {
		h.arena[i] = 1 // touch every page now, not inside a round
	}
	return h, nil
}

// warm solves every hot key once on a solver that has not seen it and
// returns the longest answer.
func (h *hotSet) warm() (int, error) {
	largest := 0
	for k, body := range h.bodies {
		status, got, err := h.fx.solve(body, nil)
		if err != nil {
			return 0, fmt.Errorf("warming key %d: %w", k, err)
		}
		if _, err := checkHTTP(status, got, false); err != nil {
			return 0, fmt.Errorf("warming key %d: %w", k, err)
		}
		largest = max(largest, len(got))
	}
	return largest, nil
}

func (h *hotSet) dst(op int) []byte { return h.arena[op*h.slot : (op+1)*h.slot] }

// probeHot replays a hot op through the layers and adds the one layer
// only a server has: the round trip that does no work.
func (h *hotSet) probeHot(tr *tracer, op, key int, callMicros float64, cost int64, res *roundResult) error {
	if h.probe == nil {
		h.probe = newProber(h.fx.cluster)
	}
	run := startProbe(tr, op)
	run.timed("server.roundtrip_floor", func() error {
		status, _, err := h.fx.do(http.MethodGet, "/healthz", nil, nil)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("healthz status %d", status)
		}
		return err
	})
	h.probe.pipeline(run, h.keys[key], h.bodies[key], cost, res)
	return run.finish(res, callMicros)
}

// servePath is the path of a request the solve cache answers.
var servePath = []string{
	"server.roundtrip_floor", "wire.decode", "solver.solve_hit", "schedule.breakdown", "schedule.export", "wire.encode",
}

// serve_hot_200: the steady state of a warmed schedd.
var serveHot = workload{
	name:         "serve_hot_200",
	why:          "a warmed schedd answering repeats over one keep-alive connection: wire decode/encode, keying, the cache hit and the HTTP stack do the work and heft and core none",
	size:         size{ops: 2500, tasks: 200, workflows: 8, probe: 25},
	setup:        setupServeHot,
	onPath:       servePath,
	unattributed: "server.unattributed_us",
}

type hotRunner struct {
	*hotSet
	sz  size
	seq []int // key per op
}

func setupServeHot(seed uint64, sz size) (runner, error) {
	h, err := newHotSet(sz, 1)
	if err != nil {
		return nil, err
	}
	return &hotRunner{hotSet: h, sz: sz, seq: balanced(newRand(seed, "serve_hot_200"), sz.ops, len(h.keys))}, nil
}

func (h *hotRunner) ops() int     { return len(h.seq) }
func (h *hotRunner) close() error { return h.fx.close() }

// httpAnswer is one op's answer, kept for checking after the round.
type httpAnswer struct {
	status int
	body   []byte
	err    error
}

func (h *hotRunner) round(n int, tr *tracer) (*roundResult, error) {
	res := newRoundResult(n)
	answers := make([]httpAnswer, n)
	before := h.fx.solver.Stats()

	res.begin()
	for i := 0; i < n; i++ {
		a := &answers[i]
		t0 := time.Now()
		a.status, a.body, a.err = h.fx.solve(h.bodies[h.seq[i]], h.dst(i))
		t1 := time.Now()
		res.lat = append(res.lat, ms(t1.Sub(t0)))
		if tr != nil {
			tr.op(i, t0, t0, t1)
			if i%h.sz.probe == 0 && a.err == nil {
				s, err := checkHTTP(a.status, a.body, true)
				if err != nil {
					return nil, fmt.Errorf("op %d: %w", i, err)
				}
				if err := h.probeHot(tr, i, h.seq[i], micros(t1.Sub(t0)), s.cost, res); err != nil {
					return nil, err
				}
			}
		}
	}
	res.end(n, tr != nil)
	after := h.fx.solver.Stats()

	dig := fnv.New64a()
	for i, a := range answers {
		if a.err != nil {
			res.fail(i, a.err)
			continue
		}
		s, err := checkHTTP(a.status, a.body, true)
		if err != nil {
			res.fail(i, err)
			continue
		}
		res.cost += s.cost
		res.baseline += s.asapCost
		fmt.Fprintln(dig, i, s.cost, s.deadline)
		res.sampleStages(s)
	}
	res.digest = dig.Sum64()
	if tr == nil {
		res.solverCounts(before, after)
	}
	return res, nil
}
