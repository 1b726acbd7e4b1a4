package runtime

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/relay"
	"repro/internal/soc"
	"repro/internal/tensor"
)

// ExecutorKind selects how GraphModule.Run executes the model.
type ExecutorKind int

const (
	// ExecutorAuto (the default) runs the planned executor whenever the
	// module lowers to an execution plan, and falls back silently to the
	// reference interpreter when it does not (e.g. plain non-primitive
	// function calls). Both executors produce bit-identical outputs and
	// profiles.
	ExecutorAuto ExecutorKind = iota
	// ExecutorPlanned requires the planned executor: Run fails if the module
	// cannot be lowered to a plan.
	ExecutorPlanned
	// ExecutorInterp forces the reference AST-walking interpreter (the
	// oracle the planned executor is differential-tested against).
	ExecutorInterp
)

func (k ExecutorKind) String() string {
	switch k {
	case ExecutorAuto:
		return "auto"
	case ExecutorPlanned:
		return "plan"
	case ExecutorInterp:
		return "interp"
	}
	return fmt.Sprintf("ExecutorKind(%d)", int(k))
}

// GraphModule is the executable handle over a built library, mirroring TVM's
// graph_executor.GraphModule used throughout the paper's listings:
//
//	m.SetInput("data", x)
//	m.Run()
//	y, err := m.GetOutput(0)
//
// LastProfile exposes the simulated cost of the most recent Run. The planned
// executor's charge depends only on the plan, never on a tensor value, so an
// unprofiled planned Run charges it once per module and every later one
// returns that same profile: treat it as read-only.
//
// By default Run executes the library's cached ExecPlan: kernels write into
// views of an arena preallocated once per GraphModule, so the steady-state
// hot path allocates no intermediate buffers. Outputs returned by GetOutput
// are views into that arena and remain valid only until the next Run; Clone
// them to keep results across runs (the interpreter path returns fresh
// tensors every Run, so code that must hold results without cloning can
// SetExecutor(ExecutorInterp)).
type GraphModule struct {
	lib       *Lib
	inputs    map[string]*tensor.Tensor
	outputs   []*tensor.Tensor
	profile   *soc.Profile
	executor  ExecutorKind
	state     *planState // lazily bound arena + slot state (planned path)
	profiling bool
}

// NewGraphModule wraps a built library.
func NewGraphModule(lib *Lib) *GraphModule {
	return &GraphModule{lib: lib, inputs: map[string]*tensor.Tensor{}}
}

// Lib returns the underlying library.
func (g *GraphModule) Lib() *Lib { return g.lib }

// SetExecutor selects the execution strategy for subsequent Runs.
func (g *GraphModule) SetExecutor(k ExecutorKind) { g.executor = k }

// Executor returns the currently selected execution strategy.
func (g *GraphModule) Executor() ExecutorKind { return g.executor }

// SetProfiling toggles per-node profiling for subsequent Runs: labeled
// simulated-cost events on LastProfile (the per-op table) and, on the planned
// path, wall-clock spans retrievable via TraceSpans. With profiling off — the
// default — Run records neither, and the planned hot path stays free of the
// timing calls and span/event allocations profiling adds.
func (g *GraphModule) SetProfiling(on bool) {
	g.profiling = on
	if g.state != nil {
		g.state.setProfiling(on)
	}
}

// Profiling reports whether per-node profiling is enabled.
func (g *GraphModule) Profiling() bool { return g.profiling }

// TraceSpans returns the wall-clock per-node spans of the most recent
// profiled planned Run (nil when profiling is off or the module ran on the
// interpreter). Spans live on the PIDExec clock with the node's wavefront
// lane as the thread row.
func (g *GraphModule) TraceSpans() []obs.Span {
	if g.state == nil {
		return nil
	}
	return g.state.traceSpans()
}

// InputNames returns the model's input names in declaration order.
func (g *GraphModule) InputNames() []string {
	params := g.lib.Module.Main().Params
	names := make([]string, len(params))
	for i, p := range params {
		names[i] = p.Name
	}
	return names
}

// SetInput binds an input tensor by name.
func (g *GraphModule) SetInput(name string, t *tensor.Tensor) {
	g.inputs[name] = t
}

// ClearInputs drops every input binding, so the module no longer refers to
// tensors a caller may reuse; Run fails until each input is bound again.
func (g *GraphModule) ClearInputs() {
	clear(g.inputs)
	if g.state != nil {
		g.state.unbindInputs()
	}
}

// Run executes one inference, validating that every declared input is bound,
// and sets LastProfile: a fresh profile on a profiled Run and on the
// interpreter, the plan's once-charged profile on an unprofiled planned Run.
func (g *GraphModule) Run() error {
	if err := g.validateInputs(); err != nil {
		return err
	}
	switch g.executor {
	case ExecutorInterp:
		return g.runInterp()
	case ExecutorPlanned:
		st, err := g.planState()
		if err != nil {
			return err
		}
		return g.runPlanned(st)
	default: // ExecutorAuto
		if st, err := g.planState(); err == nil {
			return g.runPlanned(st)
		}
		return g.runInterp()
	}
}

func (g *GraphModule) validateInputs() error {
	for _, p := range g.lib.Module.Main().Params {
		in, ok := g.inputs[p.Name]
		if !ok {
			return fmt.Errorf("runtime: input %q not set", p.Name)
		}
		if tt, ok := p.TypeAnnotation.(*relay.TensorType); ok {
			if !in.Shape.Equal(tt.Shape) {
				return fmt.Errorf("runtime: input %q shape %s, model wants %s", p.Name, in.Shape, tt.Shape)
			}
			if in.DType != tt.DType {
				return fmt.Errorf("runtime: input %q dtype %s, model wants %s", p.Name, in.DType, tt.DType)
			}
		}
	}
	return nil
}

// planState lazily binds this module's arena to the library's cached plan.
// Each GraphModule owns its state, so two modules over one Lib never share
// buffers.
func (g *GraphModule) planState() (*planState, error) {
	if g.state != nil {
		return g.state, nil
	}
	plan, err := g.lib.Plan()
	if err != nil {
		return nil, err
	}
	st, err := newPlanState(plan)
	if err != nil {
		return nil, err
	}
	g.state = st
	return st, nil
}

// runPlanned executes the plan and sets the profile: a profiled run charges
// a fresh one with events, an unprofiled run reuses the one its state
// charged first (the charge reads the plan alone, so every run's is equal).
func (g *GraphModule) runPlanned(st *planState) error {
	if g.profiling {
		if st.trace == nil {
			st.setProfiling(true) // state may postdate SetProfiling(true)
		}
		st.setEpoch(time.Now())
	}
	if err := st.run(g.inputs); err != nil {
		return err
	}
	g.outputs = g.outputs[:0]
	for _, s := range st.plan.ids(st.plan.outputs) {
		g.outputs = append(g.outputs, st.slots[s])
	}
	if g.profiling {
		g.profile = soc.NewProfile()
		g.profile.EnableEvents()
		st.plan.charge(g.profile)
		return nil
	}
	if st.charged == nil {
		st.charged = soc.NewProfile()
		st.plan.charge(st.charged)
	}
	g.profile = st.charged
	return nil
}

func (g *GraphModule) runInterp() error {
	main := g.lib.Module.Main()
	prof := soc.NewProfile()
	if g.profiling {
		prof.EnableEvents()
	}
	ex := newExecutor(g.lib, prof)
	for _, p := range main.Params {
		in := g.inputs[p.Name]
		in.MarkVolatile() // refillable between runs, like the planned executor's inputs
		ex.env[p] = in
	}
	out, err := ex.eval(main.Body)
	if err != nil {
		return err
	}
	g.outputs = g.outputs[:0]
	switch v := out.(type) {
	case *tensor.Tensor:
		g.outputs = append(g.outputs, v)
	case []value:
		for i, f := range v {
			t, ok := f.(*tensor.Tensor)
			if !ok {
				return fmt.Errorf("runtime: output %d is not a tensor", i)
			}
			g.outputs = append(g.outputs, t)
		}
	default:
		return fmt.Errorf("runtime: unexpected result value %T", out)
	}
	g.profile = prof
	return nil
}

// NumOutputs returns the output count of the last Run.
func (g *GraphModule) NumOutputs() int { return len(g.outputs) }

// GetOutput returns output i of the last Run. On the planned path the tensor
// is an arena view valid until the next Run; Clone it to keep.
func (g *GraphModule) GetOutput(i int) (*tensor.Tensor, error) {
	if i < 0 || i >= len(g.outputs) {
		return nil, fmt.Errorf("runtime: GetOutput(%d) with %d outputs (did Run succeed?)", i, len(g.outputs))
	}
	return g.outputs[i], nil
}

// OutputCopy returns a detached deep copy of output i of the last Run. The
// copy shares no storage with the module's arena, so it stays valid across
// subsequent Runs and may be handed to other goroutines — the safe choice
// for serving layers that release the module back to a pool before the
// response is consumed. (GetOutput is the zero-copy variant whose view the
// next Run invalidates; see the package documentation for the full aliasing
// contract.)
func (g *GraphModule) OutputCopy(i int) (*tensor.Tensor, error) {
	return g.OutputCopyInto(i, nil)
}

// OutputCopyInto is OutputCopy into storage the caller reuses: when dst has
// output i's dtype, shape and quantization, the output is copied into dst
// and dst returned; otherwise (dst nil included) the result is a fresh copy,
// as OutputCopy's.
//
//np:hotpath
func (g *GraphModule) OutputCopyInto(i int, dst *tensor.Tensor) (*tensor.Tensor, error) {
	t, err := g.GetOutput(i)
	if err != nil {
		return nil, err
	}
	if dst == nil || dst.DType != t.DType || !dst.Shape.Equal(t.Shape) || !sameQuant(dst.Quant, t.Quant) {
		return t.Clone(), nil //np:alloc-ok no reusable destination: a fresh copy, as OutputCopy's
	}
	return dst, dst.CopyFrom(t)
}

func sameQuant(a, b *tensor.QuantParams) bool {
	return a == b || a != nil && b != nil && *a == *b
}

// MustOutput is GetOutput for callers that have already checked Run's error;
// it panics on an out-of-range index.
func (g *GraphModule) MustOutput(i int) *tensor.Tensor {
	t, err := g.GetOutput(i)
	if err != nil {
		panic(err)
	}
	return t
}

// LastProfile returns the simulated cost profile of the last Run (nil before
// the first Run). After an unprofiled planned Run it is the profile this
// module's plan state charged once and returns for every such Run, so it is
// shared across runs and read-only: read it (Total, Events, the fields), never
// charge into it. A profiled Run and the interpreter charge a fresh one.
func (g *GraphModule) LastProfile() *soc.Profile { return g.profile }
