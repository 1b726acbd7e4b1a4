// Package fleet is the multi-worker serving tier: a TVM-RPC-tracker-style
// router that workers register with (device key + base URL + heartbeat),
// health-checked routing of /v1/infer across the fleet with consistent
// worker selection and retry-on-dead-worker, and fleet-wide aggregation of
// /statsz and /metricsz. One npserve process is one worker; nprouter fronts
// any number of them.
package fleet

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// Options tunes the router; zero values get defaults.
type Options struct {
	// HeartbeatTimeout marks a worker unhealthy when no heartbeat or
	// successful probe arrives within it (default 10s).
	HeartbeatTimeout time.Duration
	// HealthInterval is the probe loop period (default 2s).
	HealthInterval time.Duration
	// Client performs worker requests (default: 5s-timeout http.Client).
	Client *http.Client
	// Metrics receives the np_fleet_* instrument family (default: fresh
	// registry, exposed on the router's /metricsz).
	Metrics *obs.Registry
}

// Router tracks registered workers and routes inference across them.
type Router struct {
	opts    Options
	client  *http.Client
	metrics *obs.Registry
	tracer  *obs.Tracer
	track   *obs.Track
	now     func() time.Time
	start   time.Time

	mu      sync.RWMutex
	workers map[string]*workerState

	registeredG *obs.Gauge
	healthyG    *obs.Gauge
	retriedC    *obs.Counter
	failedC     *obs.Counter
	scrapeErrC  *obs.Counter
	// routed totals np_fleet_routed_requests_total across its (worker, model)
	// series, for /statsz and the dashboard.
	routed obs.Counter
}

// NewRouter builds a router; Handler serves its HTTP surface and
// HealthCheckLoop keeps worker states fresh.
func NewRouter(opts Options) *Router {
	if opts.HeartbeatTimeout <= 0 {
		opts.HeartbeatTimeout = 10 * time.Second
	}
	if opts.HealthInterval <= 0 {
		opts.HealthInterval = 2 * time.Second
	}
	if opts.Client == nil {
		opts.Client = &http.Client{Timeout: 5 * time.Second}
	}
	if opts.Metrics == nil {
		opts.Metrics = obs.NewRegistry()
	}
	rt := &Router{
		opts:    opts,
		client:  opts.Client,
		metrics: opts.Metrics,
		tracer:  obs.NewTracer(0),
		now:     time.Now,
		workers: map[string]*workerState{},
	}
	rt.track = rt.tracer.NewTrack("router")
	rt.start = rt.now()
	rt.registeredG = rt.metrics.Gauge("np_fleet_workers_registered",
		"Workers currently registered with the router.", obs.L())
	rt.healthyG = rt.metrics.Gauge("np_fleet_workers_healthy",
		"Registered workers that are healthy and not draining.", obs.L())
	rt.retriedC = rt.metrics.Counter("np_fleet_retried_requests_total",
		"Inference attempts rerouted after a worker failed or refused.", obs.L())
	rt.failedC = rt.metrics.Counter("np_fleet_failed_requests_total",
		"Inference requests that exhausted every candidate worker.", obs.L())
	rt.scrapeErrC = rt.metrics.Counter("np_fleet_scrape_errors_total",
		"Worker stat/metric scrapes that failed during aggregation.", obs.L())
	return rt
}

// Metrics returns the router's instrument registry.
func (rt *Router) Metrics() *obs.Registry { return rt.metrics }

// Tracer returns the router's span tracer; routed requests leave a
// route:<model> span per attempt, stamped with the trace ID and worker key.
func (rt *Router) Tracer() *obs.Tracer { return rt.tracer }

// Handler returns the router's HTTP surface:
//
//	POST /fleet/register   {"key":"w1","url":"http://..."} → tracked + probed
//	POST /fleet/heartbeat  {"key":"w1"}                    → liveness refresh
//	POST /fleet/deregister {"key":"w1"}                    → removed
//	GET  /fleet/workers                                    → fleet roster
//	POST /v1/infer                                         → routed inference
//	GET  /statsz                                           → fleet-wide stats
//	GET  /metricsz                                         → merged exposition
//	GET  /tracez[?id=<trace>]                              → stitched fleet trace
//	GET  /debugz/requests                                  → merged flight records
//	GET  /dashboardz                                       → SLO health dashboard
//	GET  /healthz                                          → router liveness
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/fleet/register", func(w http.ResponseWriter, r *http.Request) {
		var req RegisterRequest
		if !postBody(w, r, &req) {
			return
		}
		if err := rt.Register(req.Key, req.URL); err != nil {
			writeErr(w, http.StatusBadRequest, err.Error())
			return
		}
		writeJSONBody(w, map[string]any{"registered": req.Key})
	})
	mux.HandleFunc("/fleet/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req RegisterRequest
		if !postBody(w, r, &req) {
			return
		}
		if err := rt.Heartbeat(req.Key); err != nil {
			writeErr(w, http.StatusNotFound, err.Error())
			return
		}
		writeJSONBody(w, map[string]any{"ok": true})
	})
	mux.HandleFunc("/fleet/deregister", func(w http.ResponseWriter, r *http.Request) {
		var req RegisterRequest
		if !postBody(w, r, &req) {
			return
		}
		rt.Deregister(req.Key)
		writeJSONBody(w, map[string]any{"deregistered": req.Key})
	})
	mux.HandleFunc("/fleet/workers", func(w http.ResponseWriter, r *http.Request) {
		writeJSONBody(w, map[string]any{"workers": rt.Workers()})
	})
	mux.HandleFunc("/v1/infer", rt.handleInfer)
	mux.HandleFunc("/statsz", rt.handleStats)
	mux.HandleFunc("/metricsz", rt.handleMetrics)
	mux.HandleFunc("/tracez", rt.handleTracez)
	mux.HandleFunc("/debugz/requests", rt.handleDebugRequests)
	mux.HandleFunc("/dashboardz", rt.handleDashboard)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		ws := rt.Workers()
		writeJSONBody(w, map[string]any{"status": "ok", "workers": len(ws), "healthy": routable(ws)})
	})
	return mux
}

// maxControlBody bounds a /fleet/ control request: a key and a URL.
const maxControlBody = 1 << 20

func postBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST only")
		return false
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxControlBody)).Decode(v); err != nil {
		writeErr(w, serve.BodyErrStatus(err), "bad request body: "+err.Error())
		return false
	}
	return true
}

func writeErr(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

func writeJSONBody(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
