// Package topi implements the CPU reference kernels ("tensor operator
// inventory") for every registered relay operator, in float32 and in the
// quantized integer domain. The TVM-side graph executor calls these directly;
// the simulated NeuroPilot runtime reuses them for numerics while charging
// device-specific costs through the SoC model.
//
// Kernels receive already-evaluated argument tensors plus the call attributes
// and the type-checked output type (whose shape/dtype/quant they must honor).
// Tuple-typed arguments (concatenate) are flattened by the caller.
package topi

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/relay"
	"repro/internal/tensor"
)

// Kernel computes one operator application. dst is an optional destination
// buffer: when non-nil it matches the checked output type's dtype and element
// count, and the kernel should write its result there instead of allocating.
// A nil dst means the kernel allocates its own output. dst contents are
// unspecified on entry; kernels that need zero-initialized output must clear
// it themselves. A Kernel derives everything from its arguments on every
// call; the convolution and dense kernels are split instead (preparer).
type Kernel func(args []*tensor.Tensor, attrs relay.Attrs, out *relay.TensorType, dst *tensor.Tensor) (*tensor.Tensor, error)

// preparer is the prepare half of a kernel split into prepare and run: from
// the argument and output types and the attributes alone — never an
// operand's data — it builds what every launch on tensors of those types
// would otherwise re-derive. The convolution and dense kernels (conv.go,
// fused.go) register one; Register wraps every other Kernel in one that
// prepares nothing.
type preparer func(in []*relay.TensorType, attrs relay.Attrs, out *relay.TensorType) (runner, error)

// runner is a prepared kernel's run half: it computes the operator over
// args into dst, or into a fresh output when dst is nil. bytes is what its
// prepared state holds.
type runner interface {
	run(args []*tensor.Tensor, dst *tensor.Tensor) (*tensor.Tensor, error)
	bytes() int
}

// kernelRun is the runner of a Kernel with nothing to prepare.
type kernelRun struct {
	k     Kernel
	attrs relay.Attrs
	out   *relay.TensorType
}

func (r *kernelRun) run(args []*tensor.Tensor, dst *tensor.Tensor) (*tensor.Tensor, error) {
	return r.k(args, r.attrs, r.out, dst)
}

func (r *kernelRun) bytes() int { return 0 }

var (
	kernelMu sync.RWMutex
	kernels  = map[string]preparer{}
)

// Register installs the kernel for an operator name; duplicate registration
// panics (init-order bug).
func Register(name string, k Kernel) {
	registerPrepared(name, func(_ []*relay.TensorType, attrs relay.Attrs, out *relay.TensorType) (runner, error) {
		return &kernelRun{k, attrs, out}, nil
	})
}

// registerPrepared installs a kernel split into prepare and run.
func registerPrepared(name string, p preparer) {
	kernelMu.Lock()
	defer kernelMu.Unlock()
	if _, dup := kernels[name]; dup {
		panic(fmt.Sprintf("topi: duplicate kernel %q", name))
	}
	kernels[name] = p
}

// Has reports whether an operator name has a kernel.
func Has(name string) bool {
	kernelMu.RLock()
	defer kernelMu.RUnlock()
	_, ok := kernels[name]
	return ok
}

// Launch is one operator application prepared once for fixed argument and
// output types: the resolved kernel and, for a convolution or dense layer,
// its geometry, strategy, epilogue and indirection table. Run executes it
// on any tensors of those types; it never reads the data of the operands
// it was prepared for, so a different tensor of the same type may be bound
// on every run. The planned executor keeps one per op node of a plan state,
// a NeuroPilot region's stages among them; Run prepares one per call.
type Launch struct {
	name string
	out  *relay.TensorType
	r    runner
}

// Prepare builds the launch of operator name on arguments of types in (a
// tuple argument flattened) with the checked output type out.
func Prepare(name string, in []*relay.TensorType, attrs relay.Attrs, out *relay.TensorType) (Launch, error) {
	kernelMu.RLock()
	p, ok := kernels[name]
	kernelMu.RUnlock()
	if !ok {
		return Launch{}, fmt.Errorf("topi: no kernel registered for %q", name)
	}
	r, err := p(in, attrs, out)
	if err != nil {
		return Launch{}, fmt.Errorf("topi: %s: %w", name, err)
	}
	return Launch{name: name, out: out, r: r}, nil
}

// Bytes is what the launch's prepared state holds beyond the launch itself:
// a convolution's or dense layer's indirection table and zero row. A
// launch that prepares nothing holds none.
func (l *Launch) Bytes() int { return l.r.bytes() }

// Run executes the launch into a caller-supplied destination buffer
// (typically an arena view handed out by the planned executor's memory
// planner). dst must match the checked output type's dtype and element
// count. Kernels normally write dst in place; the few that fundamentally
// produce a fresh tensor fall back to a copy so the caller's aliasing
// contract holds. A convolution or dense launch refuses arguments of any
// shape but the prepared one.
//
//np:hotpath
func (l *Launch) Run(args []*tensor.Tensor, dst *tensor.Tensor) error {
	if dst == nil {
		return fmt.Errorf("topi: %s: run with nil destination", l.name)
	}
	if dst.DType != l.out.DType || dst.Elems() != l.out.Shape.Elems() {
		return fmt.Errorf("topi: %s: destination %s %s does not match checked type %s %s",
			l.name, dst.DType, dst.Shape, l.out.DType, l.out.Shape)
	}
	t, err := l.call(args, dst)
	if err != nil {
		return err
	}
	if t != dst {
		if err := dst.CopyFrom(t); err != nil {
			return fmt.Errorf("topi: %s: %w", l.name, err)
		}
	}
	return nil
}

// call runs the kernel, observed when kernel metrics are on, and checks the
// result's shape against the checked type.
func (l *Launch) call(args []*tensor.Tensor, dst *tensor.Tensor) (*tensor.Tensor, error) {
	if r := kernelObs.Load(); r != nil {
		defer observeKernel(r, l.name, time.Now())
	}
	t, err := l.r.run(args, dst)
	if err != nil {
		return nil, fmt.Errorf("topi: %s: %w", l.name, err)
	}
	if !t.Shape.Equal(l.out.Shape) {
		return nil, fmt.Errorf("topi: %s produced shape %s, type checker said %s", l.name, t.Shape, l.out.Shape)
	}
	return t, nil
}

// Run executes one operator, allocating a fresh output tensor: it prepares
// the launch for args' types and runs it once. It is the entry point of the
// interpreting graph executor and of the passes that evaluate constants.
func Run(name string, args []*tensor.Tensor, attrs relay.Attrs, out *relay.TensorType) (*tensor.Tensor, error) {
	l, err := Prepare(name, typesOf(args), attrs, out)
	if err != nil {
		return nil, err
	}
	return l.call(args, nil)
}

// typesOf returns the tensor types of args, for Prepare.
func typesOf(args []*tensor.Tensor) []*relay.TensorType {
	tys := make([]relay.TensorType, len(args))
	in := make([]*relay.TensorType, len(args))
	for i, a := range args {
		tys[i] = relay.TensorType{Shape: a.Shape, DType: a.DType, Quant: a.Quant}
		in[i] = &tys[i]
	}
	return in
}

// checkArgs refuses arguments whose number, dtypes or shapes differ from
// the types a launch was prepared for: a prepared table is only valid for
// them, and the assembly tiles do no bounds check.
//
//np:hotpath
func checkArgs(in []*relay.TensorType, args []*tensor.Tensor) error {
	if len(args) != len(in) {
		return fmt.Errorf("prepared for %d args, got %d", len(in), len(args))
	}
	for i, ty := range in {
		if a := args[i]; a.DType != ty.DType || !a.Shape.Equal(ty.Shape) {
			return fmt.Errorf("arg %d is %s%s, prepared for %s%s", i, a.DType, a.Shape, ty.DType, ty.Shape)
		}
	}
	return nil
}

// KernelNames returns all registered kernel names, sorted; tests use it to
// assert every relay op has a kernel.
func KernelNames() []string {
	kernelMu.RLock()
	defer kernelMu.RUnlock()
	names := make([]string, 0, len(kernels))
	for n := range kernels {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// newOutput allocates the output tensor described by the checked type.
func newOutput(out *relay.TensorType) *tensor.Tensor {
	t := tensor.New(out.DType, out.Shape)
	if out.Quant != nil {
		q := *out.Quant
		t.Quant = &q
	}
	return t
}

// output returns the destination buffer for a kernel: dst when the caller
// supplied one (RunInto — no allocation, contents stale), otherwise a fresh
// zero-filled tensor. Kernels that overwrite every output element use this
// as-is; a kernel whose algorithm assumes zeroed output (nn.pad) must clear
// the reused buffer itself.
func output(dst *tensor.Tensor, out *relay.TensorType) *tensor.Tensor {
	if dst == nil {
		return newOutput(out)
	}
	if out.Quant == nil {
		dst.Quant = nil
	} else if dst.Quant == nil || *dst.Quant != *out.Quant {
		// Only reallocate when the view's params differ; arena views arrive
		// pre-bound with the slot's params, keeping the steady state alloc-free.
		q := *out.Quant
		dst.Quant = &q
	}
	return dst
}

func wantArgs(args []*tensor.Tensor, n int, name string) error {
	if len(args) != n {
		return fmt.Errorf("%s kernel expects %d args, got %d", name, n, len(args))
	}
	return nil
}
