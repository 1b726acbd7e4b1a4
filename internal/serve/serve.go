// Package serve is the concurrent inference-serving layer over the compiled
// runtime: it turns built libraries into deadline-aware, goroutine-safe
// endpoints — the ROADMAP's "serve heavy traffic" direction applied to the
// paper's §5 scheduling model.
//
// Three mechanisms compose per registered model:
//
//   - A module pool: N independently planned GraphModule instances over one
//     shared Lib (plan lowered once, one arena per instance), checked out per
//     batch. Steady-state serving therefore stays allocation-free inside the
//     executor while remaining safe under arbitrary client concurrency.
//   - A dynamic micro-batcher: same-model requests arriving within a
//     configurable window coalesce into one device reservation; results fan
//     back out with outputs copied out of the arena before the module returns
//     to the pool. Submit's copies are fresh tensors (OutputCopy); /v1/infer
//     copies into tensors its request brought from the endpoint's pool
//     (OutputCopyInto), and binds its inputs into pooled tensors too, so a
//     request allocates nothing that scales with the model.
//   - Admission control: a bounded queue with per-request context deadlines.
//     A full queue rejects immediately with ErrOverloaded (HTTP 429) rather
//     than blocking; a request whose deadline expires while queued is
//     answered with its context error without ever executing; Drain stops
//     admission and lets workers finish what was already admitted.
//
// Device exclusivity reuses internal/pipeline's model: every batch holds the
// wall-clock locks of its model's simulated device set for the duration of
// execution, so an APU-bound model and a CPU-bound model overlap while two
// APU models serialize — exactly the paper's exclusive-resource rule, applied
// to request traffic instead of video frames.
package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/runtime"
	"repro/internal/soc"
	"repro/internal/tensor"
	"repro/internal/topi"
)

// Typed admission errors (the HTTP layer maps these to status codes).
var (
	// ErrOverloaded reports a full admission queue: the request was rejected
	// immediately instead of being allowed to queue without bound.
	ErrOverloaded = errors.New("serve: overloaded (admission queue full)")
	// ErrDraining reports that the server has begun graceful shutdown and
	// admits no new requests.
	ErrDraining = errors.New("serve: draining")
	// ErrUnknownModel reports a request for a model that was never registered.
	ErrUnknownModel = errors.New("serve: unknown model")
)

// ModelOptions configures one registered endpoint.
type ModelOptions struct {
	// Version labels the model revision this endpoint serves. It is carried
	// on every Result and in /healthz and /statsz, so clients and the fleet
	// router can attribute a response to the exact revision that produced it.
	// Registries deploying versioned endpoints set it; direct registrations
	// may leave it empty.
	Version string
	// Pool is the number of GraphModule instances (and worker goroutines);
	// default 2.
	Pool int
	// QueueDepth bounds the admission queue; default 64.
	QueueDepth int
	// MaxBatch caps the dynamic micro-batch size; <= 1 disables batching.
	MaxBatch int
	// BatchWindow is how long a worker holds the first request of a batch
	// waiting for companions; default 2ms. Ignored when MaxBatch <= 1.
	BatchWindow time.Duration
	// Devices is the simulated device set the model occupies exclusively
	// while executing. Defaults to the set implied by the library's build
	// options: CPU, plus the NIR target devices on the BYOC path.
	Devices []soc.DeviceKind
	// Gate, when non-nil, is invoked with the batch size immediately before
	// each batch executes. It exists for tests and benchmarks to shape
	// traffic deterministically (e.g. hold a worker to force queueing).
	Gate func(batch int)
}

func (o ModelOptions) withDefaults(lib *runtime.Lib) ModelOptions {
	if o.Pool <= 0 {
		o.Pool = 2
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 1
	}
	if o.BatchWindow <= 0 {
		o.BatchWindow = 2 * time.Millisecond
	}
	if len(o.Devices) == 0 {
		o.Devices = LibDevices(lib)
	}
	return o
}

// LibDevices derives the exclusive device set a built library occupies: the
// host CPU always (TVM kernels and dispatch run there), plus every NeuroPilot
// target device when the library was partitioned for NIR.
func LibDevices(lib *runtime.Lib) []soc.DeviceKind {
	set := map[soc.DeviceKind]bool{soc.KindCPU: true}
	if lib.Opts.UseNIR {
		for _, d := range lib.Opts.NIRDevices {
			set[d] = true
		}
	}
	devs := make([]soc.DeviceKind, 0, len(set))
	for d := range set {
		devs = append(devs, d)
	}
	sort.Slice(devs, func(i, j int) bool { return devs[i] < devs[j] })
	return devs
}

// Result is one request's response.
type Result struct {
	// Outputs are detached copies (no arena aliasing): Submit's are valid
	// indefinitely.
	Outputs []*tensor.Tensor
	// Version is the model revision of the endpoint that served the request
	// (ModelOptions.Version; empty for unversioned registrations). Because it
	// is stamped by the executing worker, a response can never mix one
	// version's outputs with another's label during a hot cutover.
	Version string
	// BatchSize is how many requests the micro-batcher coalesced into the
	// device reservation that served this one (1 = unbatched).
	BatchSize int
	// QueueWait is wall-clock time spent in the admission queue (including
	// the batch-gathering window).
	QueueWait time.Duration
	// Wall is wall-clock execution time of this request's own Run.
	Wall time.Duration
	// SimTime is the simulated device cost of this request's inference.
	SimTime soc.Seconds
}

type outcome struct {
	res *Result
	err error
}

type request struct {
	ctx    context.Context
	inputs map[string]*tensor.Tensor
	// outs, when it has room, is where the worker copies the outputs: an
	// entry of the output's dtype, shape and quantization is overwritten in
	// place, any other (nil included) replaced by a fresh copy.
	outs     []*tensor.Tensor
	ch       chan outcome
	enqueued time.Time
	// trace is the request's distributed trace context (zero when untraced).
	// Workers stamp it on their spans and flight records so one request can be
	// followed router → worker → batch afterwards.
	trace obs.TraceContext
}

func (r *request) respond(res *Result, err error) {
	r.ch <- outcome{res: res, err: err}
}

// Server hosts the registered model endpoints behind one admission-controlled
// front door, sharing a device-lock set and a virtual timeline across all of
// them.
type Server struct {
	mu        sync.RWMutex
	endpoints map[string]*endpoint
	// aliases route public model names to endpoint names: a versioned
	// registry registers endpoints as "model@version" and repoints the
	// public alias atomically, so hot-load cutover and rollback are a single
	// map write under mu. Submit resolves aliases before endpoints.
	aliases  map[string]string
	draining bool
	drainCh  chan struct{}
	locks    *pipeline.DeviceLocks
	timeline *soc.Timeline
	start    time.Time
	metrics  *obs.Registry
	tracer   *obs.Tracer
	// httpTrack carries the handlers' own spans (decode:, encode:). Handlers
	// run on net/http's goroutines, not on ones this server owns, so they
	// share this one track and its mutex instead of having one each.
	httpTrack *obs.Track
	// flight is an atomic pointer so ConfigureFlightRecorder can swap the
	// recorder without adding a lock to the per-request Record path.
	flight atomic.Pointer[obs.FlightRecorder]
	slo    *obs.SLOTracker
	aux    map[string]http.Handler
	// workerKey is this process's fleet device key (SetWorkerKey), stamped on
	// flight records so fleet-merged /debugz/requests attributes each record.
	workerKey string

	showMu   sync.Mutex
	showcase *showcaseEndpoint
}

// DefaultSlowThresholdMs is the flight recorder's default slow-lane latency
// threshold: requests at or past it are retained among the worst-N even after
// the main ring wraps.
const DefaultSlowThresholdMs = 250

// NewServer returns an empty server; register models before serving.
func NewServer() *Server {
	s := &Server{
		endpoints: map[string]*endpoint{},
		aliases:   map[string]string{},
		drainCh:   make(chan struct{}),
		locks:     &pipeline.DeviceLocks{},
		timeline:  soc.NewTimeline(),
		start:     time.Now(),
		metrics:   obs.NewRegistry(),
		tracer:    obs.NewTracer(0),
		slo:       obs.NewSLOTracker(),
		aux:       map[string]http.Handler{},
	}
	s.httpTrack = s.tracer.NewTrack("http")
	s.flight.Store(obs.NewFlightRecorder(0, 0, DefaultSlowThresholdMs))
	// Surface per-kernel launch counts and cumulative kernel time on
	// /metricsz alongside the serving metrics.
	topi.EnableKernelMetrics(s.metrics)
	return s
}

// Timeline exposes the shared virtual timeline (per-device busy accounting
// for /statsz).
func (s *Server) Timeline() *soc.Timeline { return s.timeline }

// Metrics exposes the server's instrument registry (/metricsz renders it in
// Prometheus text exposition).
func (s *Server) Metrics() *obs.Registry { return s.metrics }

// Tracer exposes the server's wall-clock span tracer: every worker records
// queue-wait, batch-coalesce, device-lock-wait, and execute spans on its own
// track, the /v1/infer handlers record decode and encode spans on the shared
// "http" track, and /tracez exports the rings as Chrome trace JSON.
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// FlightRecorder exposes the per-request black box behind /debugz/requests.
func (s *Server) FlightRecorder() *obs.FlightRecorder { return s.flight.Load() }

// ConfigureFlightRecorder replaces the flight recorder (ring capacity, slow
// lane size, slow threshold in ms — zeros take the defaults). Records held by
// the previous recorder are discarded, so configure before taking traffic.
func (s *Server) ConfigureFlightRecorder(capacity, slowN int, slowMs float64) {
	s.flight.Store(obs.NewFlightRecorder(capacity, slowN, slowMs))
}

// SLOTracker exposes the per-model objective tracker; /healthz reports its
// statuses and /metricsz exports np_slo_* gauges from it.
func (s *Server) SLOTracker() *obs.SLOTracker { return s.slo }

// SetSLO installs (or replaces) the latency objective tracked for a serving
// name. The name must match what requests are observed under — the endpoint
// name, i.e. "model@version" for registry deploys.
func (s *Server) SetSLO(model string, slo obs.SLO) { s.slo.Set(model, slo) }

// SetWorkerKey records this process's fleet device key; flight records carry
// it so fleet-merged debug dumps attribute each record to its worker.
func (s *Server) SetWorkerKey(key string) {
	s.mu.Lock()
	s.workerKey = key
	s.mu.Unlock()
}

// WorkerKey returns the fleet device key set by SetWorkerKey ("" outside a
// fleet).
func (s *Server) WorkerKey() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.workerKey
}

// Register creates an endpoint named name over a built library and starts
// its worker pool.
func (s *Server) Register(name string, lib *runtime.Lib, opts ModelOptions) error {
	if name == "" {
		return errors.New("serve: empty model name")
	}
	opts = opts.withDefaults(lib)
	e, err := newEndpoint(name, lib, opts, s)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return ErrDraining
	}
	if _, dup := s.endpoints[name]; dup {
		return fmt.Errorf("serve: model %q already registered", name)
	}
	if _, dup := s.aliases[name]; dup {
		return fmt.Errorf("serve: name %q already in use as an alias", name)
	}
	s.endpoints[name] = e
	e.startWorkers()
	return nil
}

// SetAlias atomically routes the public name to the named endpoint: requests
// submitted under the alias resolve to the target from this call on, with no
// window in which the name is unroutable. Repointing an existing alias is the
// hot-load cutover (and rollback) primitive.
func (s *Server) SetAlias(public, target string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, clash := s.endpoints[public]; clash {
		return fmt.Errorf("serve: alias %q collides with a registered endpoint", public)
	}
	e, ok := s.endpoints[target]
	if !ok {
		return fmt.Errorf("serve: alias target %w: %q", ErrUnknownModel, target)
	}
	if e.draining {
		return fmt.Errorf("serve: alias target %q is draining", target)
	}
	s.aliases[public] = target
	return nil
}

// RemoveAlias deletes a public alias (the endpoint it pointed to stays up).
func (s *Server) RemoveAlias(public string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.aliases, public)
}

// Aliases snapshots the public-name routing table.
func (s *Server) Aliases() map[string]string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]string, len(s.aliases))
	for k, v := range s.aliases {
		out[k] = v
	}
	return out
}

// resolve maps a request name through the alias table to its endpoint.
// Callers hold s.mu (read or write).
func (s *Server) resolve(name string) (*endpoint, bool) {
	if target, ok := s.aliases[name]; ok {
		name = target
	}
	e, ok := s.endpoints[name]
	return e, ok
}

// Models lists every routable name, sorted: registered endpoints plus public
// aliases. This is what a fleet router treats as the worker's model set.
func (s *Server) Models() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.endpoints)+len(s.aliases))
	for n := range s.endpoints {
		out = append(out, n)
	}
	for n := range s.aliases {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Endpoint returns the endpoint's options (introspection); name may be an
// alias.
func (s *Server) Endpoint(name string) (ModelOptions, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.resolve(name)
	if !ok {
		return ModelOptions{}, fmt.Errorf("%w: %q", ErrUnknownModel, name)
	}
	return e.opts, nil
}

// Submit runs one inference on the named model. inputs must bind exactly the
// model's declared input names; outputs in the Result are detached copies.
// It blocks until the request is served, rejected, or times out — every
// admitted request is guaranteed a response, including during drain.
func (s *Server) Submit(ctx context.Context, model string, inputs map[string]*tensor.Tensor) (*Result, error) {
	return s.submit(ctx, model, inputs, nil)
}

// submit is Submit with the outputs copied into outs where its entries fit
// (request.outs); the Result's Outputs are then outs itself, grown as needed,
// and stay the caller's to reuse.
func (s *Server) submit(ctx context.Context, model string, inputs map[string]*tensor.Tensor, outs []*tensor.Tensor) (*Result, error) {
	s.mu.RLock()
	e, ok := s.resolve(model)
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownModel, model)
	}
	if err := e.checkInputs(inputs); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	req := &request{ctx: ctx, inputs: inputs, outs: outs, ch: make(chan outcome, 1), enqueued: time.Now()}
	// Carry the caller's trace context (if any) onto the queued request so
	// the executing worker can stamp its spans and flight record with it.
	req.trace, _ = obs.TraceFrom(ctx)

	// Admission: the read lock pairs with Drain's (and DrainEndpoint's)
	// write lock so a request can never slip into a queue after the workers
	// have drained it. The alias is re-resolved under the same lock as the
	// enqueue, so a hot cutover between the input check above and admission
	// routes the request to the endpoint that is current at admission time.
	s.mu.RLock()
	if s.draining {
		s.mu.RUnlock()
		return nil, ErrDraining
	}
	if e, ok = s.resolve(model); !ok {
		s.mu.RUnlock()
		return nil, fmt.Errorf("%w: %q", ErrUnknownModel, model)
	}
	if e.draining {
		s.mu.RUnlock()
		return nil, fmt.Errorf("%w (model %q)", ErrDraining, model)
	}
	select {
	case e.queue <- req:
		e.stats.admitted()
		s.mu.RUnlock()
	default:
		s.mu.RUnlock()
		e.stats.rejected()
		return nil, ErrOverloaded
	}

	out := <-req.ch
	if out.err != nil {
		return nil, out.err
	}
	return out.res, nil
}

// Draining reports whether graceful shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.draining
}

// Drain begins graceful shutdown: new submissions are rejected with
// ErrDraining, already-admitted requests are served (or answered with their
// deadline error), and Drain returns when every worker has exited.
func (s *Server) Drain() {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.drainCh)
	}
	eps := make([]*endpoint, 0, len(s.endpoints))
	for _, e := range s.endpoints {
		eps = append(eps, e)
	}
	s.mu.Unlock()
	for _, e := range eps {
		e.wg.Wait()
	}
}

// DrainEndpoint gracefully retires one endpoint while the server keeps
// serving everything else: admission to it stops (ErrDraining), its workers
// finish every already-admitted request, and the endpoint is removed once
// they exit. An endpoint still targeted by an alias cannot be drained —
// repoint or remove the alias first (the registry's cutover discipline), so
// a routable name never points at a dying pool.
func (s *Server) DrainEndpoint(name string) error {
	s.mu.Lock()
	e, ok := s.endpoints[name]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownModel, name)
	}
	for public, target := range s.aliases {
		if target == name {
			s.mu.Unlock()
			return fmt.Errorf("serve: endpoint %q still serves alias %q; repoint it before draining", name, public)
		}
	}
	if !e.draining {
		e.draining = true
		close(e.drainCh)
	}
	s.mu.Unlock()
	e.wg.Wait()
	s.mu.Lock()
	delete(s.endpoints, name)
	s.mu.Unlock()
	return nil
}

// Stats snapshots every endpoint's counters, sorted by model name.
func (s *Server) Stats() []ModelStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]ModelStats, 0, len(s.endpoints))
	for _, e := range s.endpoints {
		st := e.stats.snapshot(e.name)
		st.Version = e.opts.Version
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Model < out[j].Model })
	return out
}
