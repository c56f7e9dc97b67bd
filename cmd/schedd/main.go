// Command schedd serves the carbon-aware scheduler over HTTP/JSON: clients
// POST workflows (plus a deadline and a power profile or scenario) to
// /v1/solve and /v1/solve/batch and get back schedules, carbon costs, and
// per-interval breakdowns. One solver — with its HEFT plan cache and
// solve-response cache — fronts one target cluster for the whole process.
//
// With -supply-scenario the daemon additionally runs the multi-tenant
// online scheduler: a periodic per-zone green supply forecast is generated
// at startup, POST /v1/workflows admits workflows against the residual of
// that forecast (cluster-state ledger, admission control), and an optional
// rolling-horizon loop (-rebalance-every) periodically re-solves
// admitted-but-unstarted workflows, committing only strictly cheaper
// placements.
//
// Usage:
//
//	schedd [flags]
//
// The target platform is one of the paper clusters (-cluster small|large)
// or a custom one loaded from a JSON file in the wire format
// (-cluster-file). Shutdown is graceful: on SIGINT/SIGTERM the server
// stops accepting connections, /healthz flips to 503 ("draining"), and
// in-flight requests get -shutdown-grace to finish.
//
// See the README's "Running the service" and "Online scheduling" sections
// for curl examples.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/server"
	"repro/internal/solve"
	"repro/internal/tenancy"
	"repro/internal/wire"
)

// options collects every flag-settable knob of the daemon.
type options struct {
	addr        string
	clusterName string
	clusterFile string
	zones       int
	mapping     string
	seed        uint64
	reqTimeout  time.Duration
	batchWork   int
	maxBatch    int
	maxQueue    int
	grace       time.Duration
	drainDelay  time.Duration

	// Caching/concurrency layer of the solver.
	solveCacheLimit int
	planCacheLimit  int
	cacheTier       string

	// Observability.
	debugAddr   string
	traceBuffer int
	slowSolve   time.Duration
	logJSON     bool

	// Online scheduling (the tenancy layer). Empty supplyScenario leaves
	// it disabled: /v1/workflows answers 501.
	supplyScenario  string
	supplyHorizon   int64
	supplyIntervals int
	supplySeed      uint64
	timeUnit        time.Duration
	rebalanceEvery  time.Duration
}

func main() {
	var opt options
	flag.StringVar(&opt.addr, "addr", ":8080", "listen address")
	flag.StringVar(&opt.clusterName, "cluster", "small", "target cluster: small (72 nodes) | large (144 nodes)")
	flag.StringVar(&opt.clusterFile, "cluster-file", "", "load the target cluster from this JSON file (wire format, may carry per-group zones) instead of -cluster")
	flag.IntVar(&opt.zones, "zones", 1, "split the -cluster platform round-robin into this many grid zones (ignored with -cluster-file)")
	flag.StringVar(&opt.mapping, "mapping", "", `default mapping for requests that set none: a policy name (heft | lowpower | energy | zonegreen | zoneenergy) or "map-search" (empty = heft)`)
	flag.Uint64Var(&opt.seed, "seed", 42, "cluster link seed (ignored with -cluster-file)")
	flag.DurationVar(&opt.reqTimeout, "request-timeout", 60*time.Second, "per-request solving deadline (0 = none)")
	flag.IntVar(&opt.batchWork, "batch-workers", 0, "bounded worker pool for batched solves (0 = min(GOMAXPROCS, 16))")
	flag.IntVar(&opt.maxBatch, "max-batch", 256, "maximum requests per batch body")
	flag.IntVar(&opt.maxQueue, "max-queue", 0, "maximum batch items in flight across all batch requests before 429 (0 = 4096)")
	flag.IntVar(&opt.solveCacheLimit, "solve-cache-limit", 4096, "maximum cached solve responses (0 = response caching off)")
	flag.IntVar(&opt.planCacheLimit, "plan-cache-limit", 4096, "maximum memoized plans (0 = plan memoization off)")
	flag.StringVar(&opt.cacheTier, "cache-tier", "", `external cache tier between the response cache and a full solve: "none" | "peers:<host,...>[:mem=<entries>]" — list every fleet member, this instance included, identically on every peer (empty = none)`)
	flag.DurationVar(&opt.grace, "shutdown-grace", 30*time.Second, "how long in-flight requests may finish after SIGINT/SIGTERM")
	flag.DurationVar(&opt.drainDelay, "drain-delay", 0, "how long /healthz serves 503 (draining) before the listener closes, so load balancers can deregister")
	flag.StringVar(&opt.debugAddr, "debug-addr", "", "serve net/http/pprof, /metrics, and /debug/traces on this side address (empty = disabled; the main listener serves /metrics and /debug/traces regardless)")
	flag.IntVar(&opt.traceBuffer, "trace-buffer", 0, "solve traces retained for GET /debug/traces (0 = 256)")
	flag.DurationVar(&opt.slowSolve, "slow-solve", time.Second, "log requests at least this slow at warning level (negative = never)")
	flag.BoolVar(&opt.logJSON, "log-json", false, "emit structured logs as JSON instead of text")
	flag.StringVar(&opt.supplyScenario, "supply-scenario", "", `enable online scheduling (/v1/workflows) with this green supply shape: one scenario ("S1".."S4") for every zone, or a comma list with one per zone`)
	flag.Int64Var(&opt.supplyHorizon, "supply-horizon", 4320, "period of the generated supply forecast, in model time units (it repeats beyond this)")
	flag.IntVar(&opt.supplyIntervals, "supply-intervals", 24, "intervals per generated supply profile")
	flag.Uint64Var(&opt.supplySeed, "supply-seed", 42, "supply forecast generation seed")
	flag.DurationVar(&opt.timeUnit, "time-unit", 100*time.Millisecond, "wall-clock duration of one model time unit for the online scheduler")
	flag.DurationVar(&opt.rebalanceEvery, "rebalance-every", 0, "period of the rolling-horizon re-solve loop (0 = disabled)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, opt, nil); err != nil {
		fmt.Fprintln(os.Stderr, "schedd:", err)
		os.Exit(1)
	}
}

// buildCluster resolves the target platform from the flags.
func buildCluster(clusterName, clusterFile string, zones int, seed uint64) (*platform.Cluster, string, error) {
	if clusterFile != "" {
		data, err := os.ReadFile(clusterFile)
		if err != nil {
			return nil, "", err
		}
		var wc wire.Cluster
		if err := json.Unmarshal(data, &wc); err != nil {
			return nil, "", fmt.Errorf("parsing %s: %w", clusterFile, err)
		}
		c, err := wc.ToCluster()
		if err != nil {
			return nil, "", fmt.Errorf("parsing %s: %w", clusterFile, err)
		}
		return c, clusterFile, nil
	}
	if zones < 1 {
		zones = 1
	}
	switch clusterName {
	case "small":
		return platform.SmallZoned(seed, zones), "small", nil
	case "large":
		return platform.LargeZoned(seed, zones), "large", nil
	default:
		return nil, "", fmt.Errorf("unknown cluster %q (want small, large, or -cluster-file)", clusterName)
	}
}

// buildSupply generates the periodic per-zone supply forecast from the
// scenario spelling: one scenario applied to every zone, or a comma list
// with exactly one per cluster zone. Per-zone power bounds come from the
// cluster (the paper's platform-derived gmin/gmax).
func buildSupply(cluster *platform.Cluster, scenario string, horizon int64, intervals int, seed uint64) (*power.ZoneSet, error) {
	names := strings.Split(scenario, ",")
	if len(names) == 1 && cluster.NumZones() > 1 {
		names = make([]string, cluster.NumZones())
		for z := range names {
			names[z] = scenario
		}
	}
	if len(names) != cluster.NumZones() {
		return nil, fmt.Errorf("-supply-scenario lists %d scenarios for %d zones", len(names), cluster.NumZones())
	}
	if horizon <= 0 {
		return nil, fmt.Errorf("-supply-horizon %d must be positive", horizon)
	}
	specs := make([]power.ZoneSpec, len(names))
	for z, name := range names {
		sc, err := power.ParseScenario(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		gmin, gmax := power.PlatformBounds(cluster.ZoneComputeIdle(z), cluster.ZoneComputeWork(z))
		specs[z] = power.ZoneSpec{
			Name:     fmt.Sprintf("z%d", z),
			Scenario: sc,
			Gmin:     gmin,
			Gmax:     gmax,
		}
	}
	return power.GenerateZones(specs, horizon, intervals, seed)
}

// rebalanceLoop runs the rolling horizon until ctx is canceled: every
// period it re-solves admitted-but-unstarted workflows against the
// current residual supply, committing only strictly cheaper placements.
func rebalanceLoop(ctx context.Context, lg *slog.Logger, m *tenancy.Manager, every time.Duration) {
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			rep, err := m.Rebalance(ctx)
			if err != nil {
				if ctx.Err() == nil {
					lg.Error("rebalance failed", "err", err)
				}
				continue
			}
			if rep.Moved > 0 {
				lg.Info("rebalance pass",
					"time", rep.Time, "moved", rep.Moved,
					"considered", rep.Considered, "saved_units", rep.Saved)
			}
		}
	}
}

// debugMux builds the side mux served on -debug-addr: the standard pprof
// endpoints plus the same /metrics and /debug/traces views as the main
// listener, so profilers and scrapers can stay off the serving port.
func debugMux(srv *server.Server) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		srv.Registry().WriteText(w)
	})
	mux.Handle("/debug/traces", srv.Tracer())
	return mux
}

// run serves until ctx is canceled, then drains gracefully. If ready is
// non-nil it receives the bound address once the listener is up (tests
// pass ":0" and read the actual port from it).
func run(ctx context.Context, opt options, ready chan<- string) error {
	var handler slog.Handler = slog.NewTextHandler(os.Stderr, nil)
	if opt.logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	}
	lg := slog.New(handler)

	cluster, label, err := buildCluster(opt.clusterName, opt.clusterFile, opt.zones, opt.seed)
	if err != nil {
		return err
	}
	// Fail fast on an unknown default mapping instead of 400ing every
	// request later.
	if _, _, err := solve.ParseMapping(opt.mapping); err != nil {
		return err
	}
	reqTimeout := opt.reqTimeout
	if reqTimeout == 0 {
		// The flag documents 0 as "no deadline"; the server Config uses 0
		// for "default", so translate.
		reqTimeout = -1
	}
	// Validate the cache knobs up front: a typo'd tier spec or a negative
	// limit should refuse to start, not misbehave under load.
	if opt.solveCacheLimit < 0 {
		return fmt.Errorf("-solve-cache-limit %d must be >= 0", opt.solveCacheLimit)
	}
	if opt.planCacheLimit < 0 {
		return fmt.Errorf("-plan-cache-limit %d must be >= 0", opt.planCacheLimit)
	}
	// A peers: tier also gets the fleet cache-exchange endpoints and the
	// per-peer /metrics families: the server reads it from the solver.
	tier, err := solve.ParseCacheTier(opt.cacheTier)
	if err != nil {
		return err
	}
	solver := solve.NewSolver(cluster,
		solve.WithSolveCacheLimit(opt.solveCacheLimit),
		solve.WithPlanCacheLimit(opt.planCacheLimit),
		solve.WithCacheTier(tier),
	)

	var manager *tenancy.Manager
	if opt.supplyScenario != "" {
		supply, err := buildSupply(cluster, opt.supplyScenario, opt.supplyHorizon, opt.supplyIntervals, opt.supplySeed)
		if err != nil {
			return err
		}
		manager, err = tenancy.NewManager(tenancy.Config{
			Solver: solver,
			Supply: supply,
			Clock:  tenancy.NewWallClock(opt.timeUnit),
		})
		if err != nil {
			return err
		}
		lg.Info("online scheduling on",
			"zones", supply.NumZones(), "horizon_units", supply.T(), "time_unit", opt.timeUnit.String())
	}

	srv := server.New(solver, server.Config{
		RequestTimeout: reqTimeout,
		BatchWorkers:   opt.batchWork,
		MaxBatch:       opt.maxBatch,
		MaxQueue:       opt.maxQueue,
		DefaultMapping: opt.mapping,
		Manager:        manager,
		Logger:         lg,
		SlowSolve:      opt.slowSolve,
		TraceBuffer:    opt.traceBuffer,
	})

	ln, err := net.Listen("tcp", opt.addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}
	lg.Info("serving", "cluster", label,
		"compute_processors", cluster.NumCompute(), "zones", cluster.NumZones(),
		"addr", ln.Addr().String())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	// Opt-in side listener for pprof and scraping off the serving port.
	var debugSrv *http.Server
	if opt.debugAddr != "" {
		dln, err := net.Listen("tcp", opt.debugAddr)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		debugSrv = &http.Server{Handler: debugMux(srv), ReadHeaderTimeout: 10 * time.Second}
		lg.Info("debug endpoints up", "addr", dln.Addr().String())
		go func() {
			if err := debugSrv.Serve(dln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				lg.Error("debug server failed", "err", err)
			}
		}()
	}

	// The rolling horizon runs outside any request, so it carries the
	// server's registry and tracer explicitly: rebalance passes show up in
	// /debug/traces and the stage histograms like request-driven work.
	loopCtx, stopLoop := context.WithCancel(
		obs.WithTracer(obs.WithMeter(context.Background(), srv.Registry()), srv.Tracer()))
	defer stopLoop()
	loopDone := make(chan struct{})
	if manager != nil && opt.rebalanceEvery > 0 {
		go func() {
			defer close(loopDone)
			rebalanceLoop(loopCtx, lg, manager, opt.rebalanceEvery)
		}()
	} else {
		close(loopDone)
	}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		return err // listener failed before any shutdown request
	case <-ctx.Done():
	}

	// Graceful shutdown: flip /healthz to 503 (draining) and — with a
	// positive -drain-delay — keep the listener open for that window so
	// load balancer health probes actually observe the 503 and deregister
	// before connections start being refused. Then http.Server.Shutdown
	// waits for in-flight requests up to the grace period. The rolling
	// horizon stops first so no rebalance pass races the drain.
	lg.Info("draining", "delay", opt.drainDelay.String(), "grace", opt.grace.String())
	srv.SetDraining()
	stopLoop()
	<-loopDone
	if opt.drainDelay > 0 {
		time.Sleep(opt.drainDelay)
	}
	sctx, cancel := context.WithTimeout(context.Background(), opt.grace)
	defer cancel()
	if debugSrv != nil {
		debugSrv.Shutdown(sctx)
	}
	if err := httpSrv.Shutdown(sctx); err != nil {
		lg.Error("forced shutdown", "err", err)
		httpSrv.Close()
		return err
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	lg.Info("stopped")
	return nil
}
