package serve

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/runtime"
	"repro/internal/tensor"
)

// endpoint is one registered model: its admission queue, its module pool,
// and its worker goroutines (one per pooled instance).
type endpoint struct {
	name   string
	lib    *runtime.Lib
	opts   ModelOptions
	server *Server

	queue chan *request
	pool  chan *runtime.GraphModule
	wg    sync.WaitGroup
	stats *statsCollector

	// drainCh closes when this endpoint alone drains (DrainEndpoint); the
	// server-wide drainCh still drains every endpoint at once. draining is
	// guarded by the server mutex and checked at admission.
	drainCh  chan struct{}
	draining bool

	// inputNames is the model's declared input set, cached at registration:
	// pooled modules retain SetInput bindings across requests, so admission
	// must require every request to bind the full set (a partial binding
	// would silently reuse a previous request's tensor).
	inputNames []string

	// devicesLabel is the exclusive device set comma-joined once at
	// registration, so per-request flight records share one string instead of
	// joining on the serving path.
	devicesLabel string

	// decodeSpan and encodeSpan name the handler's spans for this endpoint,
	// built once here rather than per request.
	decodeSpan, encodeSpan string
}

func newEndpoint(name string, lib *runtime.Lib, opts ModelOptions, s *Server) (*endpoint, error) {
	e := &endpoint{
		name:       name,
		lib:        lib,
		opts:       opts,
		server:     s,
		queue:      make(chan *request, opts.QueueDepth),
		pool:       make(chan *runtime.GraphModule, opts.Pool),
		stats:      newStatsCollector(s.metrics, name),
		drainCh:    make(chan struct{}),
		inputNames: runtime.NewGraphModule(lib).InputNames(),
		decodeSpan: "decode:" + name,
		encodeSpan: "encode:" + name,
	}
	labels := make([]string, len(opts.Devices))
	for i, d := range opts.Devices {
		labels[i] = d.String()
	}
	e.devicesLabel = strings.Join(labels, ",")
	// Build the pool eagerly and pay the plan lowering + arena bind up
	// front: the first request should not eat a cold start. Lowering runs
	// once per Lib (cached); each instance binds its own arena.
	for i := 0; i < opts.Pool; i++ {
		e.pool <- runtime.NewGraphModule(lib)
	}
	return e, nil
}

func (e *endpoint) startWorkers() {
	e.wg.Add(e.opts.Pool)
	for i := 0; i < e.opts.Pool; i++ {
		tk := e.server.tracer.NewTrack(fmt.Sprintf("%s/worker%d", e.name, i))
		go e.worker(tk)
	}
}

// checkInputs validates a request's binding against the declared input set
// before admission (shape/dtype mismatches are caught later by Run and
// answered per-request).
func (e *endpoint) checkInputs(inputs map[string]*tensor.Tensor) error {
	if len(inputs) != len(e.inputNames) {
		return fmt.Errorf("serve: model %q wants inputs %v, got %d binding(s)",
			e.name, e.inputNames, len(inputs))
	}
	for _, n := range e.inputNames {
		if inputs[n] == nil {
			return fmt.Errorf("serve: model %q: input %q not bound (want %v)",
				e.name, n, e.inputNames)
		}
	}
	return nil
}
