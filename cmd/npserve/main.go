// Command npserve is the serving binary: it compiles zoo models and exposes
// them as concurrent, deadline-aware HTTP inference endpoints backed by
// internal/serve's module pools, dynamic micro-batching, and admission
// control.
//
// Usage:
//
//	npserve                                  # serve the three showcase models + /v1/showcase
//	npserve -models "emotion,mobilenet v2"   # serve specific zoo models
//	npserve -pool 4 -batch 8 -window 2ms     # bigger pools, micro-batching on
//	npserve -addr :9000 -size full
//	npserve -artifact-cache /var/np/cache    # content-addressed compiled-Lib store
//	npserve -router http://host:8090 -key d9000-0   # join an nprouter fleet
//	npserve -slo-threshold-ms 50 -slo-quantile 0.95 # tighter latency objective
//	npserve -pprof                           # expose /debug/pprof/
//
// A sample session:
//
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/v1/infer -d '{"model":"emotion","seed":7}'
//	curl -s -X POST localhost:8080/v1/showcase -d '{"frames":2}'
//	curl -s localhost:8080/statsz
//	curl -s localhost:8080/metricsz          # Prometheus text exposition
//	curl -s localhost:8080/tracez > t.json   # worker spans, Perfetto-loadable
//	curl -s localhost:8080/debugz/requests   # flight recorder: recent + slow
//	curl -s localhost:8080/debugz/cache      # artifact-cache hit counters
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/app"
	"repro/internal/fleet"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/runtime"
	"repro/internal/serve"
	"repro/internal/tune"
)

var log = obs.NewLogger(os.Stderr, "npserve", obs.LevelInfo)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		modelsArg = flag.String("models", "showcase", `comma-separated zoo models, or "showcase" for the §4 trio + /v1/showcase`)
		sizeArg   = flag.String("size", "lite", "model build preset: lite|full")
		pool      = flag.Int("pool", 2, "GraphModule instances (and workers) per model")
		queue     = flag.Int("queue", 64, "admission queue depth per model")
		batch     = flag.Int("batch", 1, "max micro-batch size (1 = batching off)")
		window    = flag.Duration("window", 2*time.Millisecond, "micro-batch coalescing window")
		noNIR     = flag.Bool("no-nir", false, "disable NeuroPilot partitioning (TVM-only builds)")
		drainWait = flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown budget")
		tuneWith  = flag.String("tune-with", "", "tuning-record file (nptune output) to steer kernel dispatch")
		cacheDir  = flag.String("artifact-cache", "", "directory for the content-addressed compiled-Lib store (empty = in-memory only)")
		version   = flag.String("model-version", "v1", "version label for the deployed models (registry endpoint name@version)")
		routerURL = flag.String("router", "", "nprouter base URL to register with (joins the fleet)")
		workerKey = flag.String("key", "", "device key announced to the router (required with -router)")
		advertise = flag.String("advertise", "", "base URL the router reaches this worker at (default derived from -addr)")
		logLevel  = flag.String("log-level", "info", "log verbosity: debug|info|warn|error")
		pprofOn   = flag.Bool("pprof", false, "mount net/http/pprof at /debug/pprof/")
		slowMs    = flag.Float64("slow-ms", serve.DefaultSlowThresholdMs, "flight-recorder slow-lane threshold in milliseconds")
		sloMs     = flag.Float64("slo-threshold-ms", 1000, "per-model SLO latency threshold in milliseconds (0 disables SLO tracking)")
		sloQ      = flag.Float64("slo-quantile", 0.99, "SLO objective quantile in (0,1)")
		sloWindow = flag.Duration("slo-window", 5*time.Minute, "SLO estimator window")
	)
	flag.Parse()

	lv, err := obs.ParseLevel(*logLevel)
	fatal(err)
	log = obs.NewLogger(os.Stderr, "npserve", lv)

	size := models.SizeLite
	switch *sizeArg {
	case "lite":
	case "full":
		size = models.SizeFull
	default:
		fatal(fmt.Errorf("npserve: unknown -size %q (want lite or full)", *sizeArg))
	}

	srv := serve.NewServer()
	if *workerKey != "" {
		srv.SetWorkerKey(*workerKey)
	}
	srv.ConfigureFlightRecorder(0, 0, *slowMs)
	var tuningBytes []byte
	if *tuneWith != "" {
		tbl, n, err := tune.LoadAndInstall(*tuneWith)
		fatal(err)
		tbl.EnableMetrics(srv.Metrics())
		tuningBytes, err = os.ReadFile(*tuneWith)
		fatal(err)
		log.Info("loaded tuning records", "file", *tuneWith, "records", n, "configs", tbl.Len())
	}
	cache, err := registry.NewCache(*cacheDir)
	fatal(err)
	cache.EnableMetrics(srv.Metrics())
	srv.Mount("/debugz/cache", cache.Handler())
	reg := registry.New(srv)
	opts := serve.ModelOptions{
		Pool:        *pool,
		QueueDepth:  *queue,
		MaxBatch:    *batch,
		BatchWindow: *window,
	}
	slo := obs.SLO{ObjectiveQuantile: *sloQ, ThresholdMs: *sloMs, Window: *sloWindow}

	names := splitModels(*modelsArg)
	withShowcase := false
	if len(names) == 1 && names[0] == "showcase" {
		withShowcase = true
		names = nil
		for _, s := range models.Showcase() {
			names = append(names, s.Name)
		}
	}
	// loadModel materializes one zoo model through the artifact cache: the
	// content address covers the module, the build options, and any tuning
	// records, so a warmed -artifact-cache directory makes startup (and every
	// sibling worker's startup) a load instead of a compile.
	bopts := runtime.BuildOptions{OptLevel: 3, UseNIR: !*noNIR}
	loadModel := func(name string) (*runtime.Lib, string, bool, error) {
		spec, err := models.Get(name)
		if err != nil {
			return nil, "", false, err
		}
		mod, err := spec.Build(size)
		if err != nil {
			return nil, "", false, err
		}
		key, err := registry.Key(mod, bopts, tuningBytes)
		if err != nil {
			return nil, "", false, err
		}
		lib, hit, err := cache.GetOrBuild(key, nil, func() (*runtime.Lib, error) {
			return runtime.Build(mod, bopts)
		})
		return lib, key, hit, err
	}
	for _, name := range names {
		spec, err := models.Get(name)
		fatal(err)
		log.Info("loading model", "model", name, "framework", spec.Framework, "preset", *sizeArg)
		lib, key, hit, err := loadModel(name)
		fatal(err)
		fatal(reg.Deploy(name, *version, lib, opts, key))
		endpoint := registry.EndpointName(name, *version)
		if *sloMs > 0 {
			srv.SetSLO(endpoint, slo)
		}
		how := "compiled"
		if hit {
			how = "artifact-cache hit"
		}
		log.Info("deployed model", "model", name, "version", *version, "via", how,
			"key", fmt.Sprintf("%.12s", key), "pool", *pool, "queue", *queue, "batch", *batch,
			"devices", fmt.Sprint(must(srv.Endpoint(endpoint)).Devices))
	}
	srv.Mount("/admin/", reg.AdminHandler(func(model, modelVersion string) (*runtime.Lib, serve.ModelOptions, string, error) {
		lib, key, _, err := loadModel(model)
		return lib, opts, key, err
	}))
	if withShowcase {
		log.Info("building the /v1/showcase application", "models", 3)
		cfg := app.DefaultConfig()
		cfg.Size = size
		fatal(srv.RegisterShowcase(cfg))
	}
	if *pprofOn {
		srv.Mount("/debug/pprof/", obs.PprofHandler())
		log.Info("pprof enabled", "path", "/debug/pprof/")
	}

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	log.Info("serving", "models", fmt.Sprint(srv.Models()), "addr", *addr)
	log.Info("observability mounted", "stats", "/statsz", "metrics", "/metricsz",
		"trace", "/tracez", "flight", "/debugz/requests", "cache", "/debugz/cache")

	agentCtx, agentStop := context.WithCancel(context.Background())
	defer agentStop()
	var agent *fleet.Agent
	if *routerURL != "" {
		if *workerKey == "" {
			fatal(fmt.Errorf("npserve: -router requires -key (the fleet-unique device key)"))
		}
		agent = &fleet.Agent{RouterURL: *routerURL, Key: *workerKey, SelfURL: selfURL(*advertise, *addr)}
		go agent.Run(agentCtx)
		log.Info("joining fleet", "router", *routerURL, "key", *workerKey, "self", agent.SelfURL)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		fatal(err)
	case s := <-sig:
		log.Info("draining", "signal", s.String())
		ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		if agent != nil {
			agentStop()
			_ = agent.Deregister(ctx) // leave the fleet before refusing work
		}
		srv.Drain()
		_ = hs.Shutdown(ctx)
		log.Info("drained, bye")
	}
}

// selfURL derives the base URL the router should reach this worker at when
// -advertise is not given: a bare ":port" listen address advertises
// loopback, anything else is used as host:port directly.
func selfURL(advertise, addr string) string {
	if advertise != "" {
		return advertise
	}
	if strings.HasPrefix(addr, ":") {
		return "http://127.0.0.1" + addr
	}
	return "http://" + addr
}

// splitModels splits the -models flag on commas (zoo names contain spaces
// but not commas).
func splitModels(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func must(o serve.ModelOptions, err error) serve.ModelOptions {
	fatal(err)
	return o
}

func fatal(err error) {
	if err != nil {
		log.Error(err.Error())
		os.Exit(1)
	}
}
