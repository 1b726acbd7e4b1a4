package serve

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/relay"
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

	// inputNames is the model's declared input set, cached at registration.
	// Admission requires every request to bind the full set: a worker drops
	// its module's bindings after each run, so a partial binding would fail
	// in Run instead of being answered at the door.
	inputNames []string

	// sets pools the /v1/infer handler's per-request tensors (ioSet): the
	// model's input shapes and dtypes are fixed here at registration, so a
	// request binds into tensors an earlier one left behind.
	sets sync.Pool

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
	e.sets.New = func() any { return newIOSet(lib) }
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

// ioSet is one /v1/infer request's tensors at an endpoint: an input tensor
// of the declared dtype and shape per model input, bound by name as Submit
// takes them, and the output tensors the worker copies the results into
// (grown on the first request, reused by later ones). A handler takes a set
// from its endpoint, holds it until the reply is encoded, and returns it;
// Submit does not return before the worker is done with the request, and the
// worker drops its module's bindings after the run, so no goroutine reaches
// a set between two requests.
type ioSet struct {
	inputs map[string]*tensor.Tensor
	outs   []*tensor.Tensor
}

// newIOSet allocates one input tensor per tensor-typed model input.
func newIOSet(lib *runtime.Lib) *ioSet {
	params := lib.Module.Main().Params
	set := &ioSet{inputs: make(map[string]*tensor.Tensor, len(params))}
	for _, p := range params {
		if tt, ok := p.TypeAnnotation.(*relay.TensorType); ok {
			t := tensor.New(tt.DType, tt.Shape)
			if tt.Quant != nil {
				q := *tt.Quant
				t.Quant = &q
			}
			// Refilled per request: a kernel must not keep what it derives
			// from one request's values (a weight input's packed panels).
			t.MarkVolatile()
			set.inputs[p.Name] = t
		}
	}
	return set
}
