package neuron

import (
	"fmt"

	"repro/internal/relay"
	"repro/internal/tensor"
	"repro/internal/topi"
)

// The Neuron runtime: executes a compiled model's operations, computing real
// numerics through the shared kernel inventory. The simulated device time and
// boundary DMA of the same plan are charged by Estimate (planner.go).
//
// In the real stack Neuron ships its own tuned libraries; the simulation
// reuses the reference numerics and models the performance difference purely
// through the engine-efficiency factors of the cost model (see DESIGN.md §2).
// ExecuteInto allocates nothing in the steady state: the caller owns both the
// working set (an ExecState, one per executing module) and the result
// buffers, which on the planned executor are arena views planned like any
// other node's result. Every kernel launch is prepared once per working set
// (topi.Prepare, in NewExecState) and writes into those buffers, and
// conv/dense anchors run their absorbed epilogue in the same launch
// (topi/fused.go): a quantized anchor with an absorbed requantize dispatches
// to the fused kernel (qnn.conv2d_fused, qnn.dense_fused), a float one hands
// its bias and fused_activation to nn.conv2d / nn.dense itself.

// ExecState is the working set of one executing instance of a compiled
// model: the per-operation dispatch plan and the buffers of every
// intermediate operand. It serves one ExecuteInto call at a time; the
// planned executor keeps one per external node of each GraphModule.
type ExecState struct {
	model  *Model
	values []*tensor.Tensor
	args   [][]*tensor.Tensor
	// opOut[i] is the buffer operation i writes, nil when its result is a
	// model output: that operation writes into the caller's outs[outAt[i]].
	opOut []*tensor.Tensor
	outAt []int
	ops   []opExec
	// pair is scratch for assembling 1- and 2-argument kernel calls without
	// allocating.
	pair [2]*tensor.Tensor
}

// opExec is the per-operation dispatch plan, derived once from the static
// model with every kernel launch prepared, so the per-call path does no
// attribute parsing, type construction or kernel lookup.
type opExec struct {
	// main launches the anchor kernel, or the quantized fused kernel.
	main topi.Launch
	// fused: the whole anchor→bias→(requantize→)activation chain runs as one
	// launch of main — a float conv/dense anchor, or a quantized one with
	// an absorbed requantize; args pass through unchanged.
	fused bool
	// biasAdd, when splitBias, applies args[2] — a bias absorbed by the
	// fusion pass — as a separate nn.bias_add stage.
	splitBias bool
	biasAdd   topi.Launch
	// stage is the pooled int32 accumulator between the anchor and a staged
	// requantize, which requant narrows into the final type; nil when the
	// anchor writes the final type directly.
	stage   *tensor.Tensor
	requant topi.Launch
	// act, when hasAct, is the staged fused activation, in place.
	hasAct bool
	act    topi.Launch
}

// relu6Attrs is shared read-only by every staged relu6 epilogue.
var relu6Attrs = relay.Attrs{"a_min": 0.0, "a_max": 6.0}

var emptyAttrs = relay.Attrs{}

// newOperandTensor allocates an operand buffer, rewritten by every Execute:
// volatile, so no kernel keeps what it derives from one run's values.
func newOperandTensor(od Operand) *tensor.Tensor {
	t := tensor.New(od.Type.DType, od.Type.Shape)
	if od.Type.Quant != nil {
		q := *od.Type.Quant
		t.Quant = &q
	}
	t.MarkVolatile()
	return t
}

// buildOpExec plans and prepares operation op of m.
func buildOpExec(m *Model, op Operation) (opExec, error) {
	var e opExec
	finalTy := operandRelayType(m.Operands[op.Outputs[0]])
	in := make([]*relay.TensorType, len(op.Inputs))
	for i, idx := range op.Inputs {
		in[i] = operandRelayType(m.Operands[idx])
	}
	quantized := isQuantizedOp(m, op)
	kernel := KernelFor(op.Code, quantized)
	if kernel == "" {
		return e, fmt.Errorf("neuron: opcode %s has no kernel", op.Code)
	}
	convOrDense := isFusionAnchor(op.Code) && op.Code != Add
	var err error
	if f := op.Code.row().fused; !quantized && convOrDense || quantized && f != "" && op.Attrs.Bool(FusedRequantAttr, false) {
		// nn.conv2d and nn.dense take the bias as args[2] and
		// fused_activation as their row epilogue; a quantized anchor with an
		// absorbed requantize runs the fused kernel.
		if quantized {
			kernel = f
		}
		e.fused = true
		e.main, err = topi.Prepare(kernel, in, op.Attrs, finalTy)
		return e, err
	}
	e.splitBias = convOrDense && len(op.Inputs) >= 3
	mainTy := finalTy
	if op.Attrs.Bool(FusedRequantAttr, false) {
		// Staged requantize: the anchor produces the int32 accumulator, then
		// qnn.requantize narrows it into the final operand type.
		mainTy = &relay.TensorType{Shape: finalTy.Shape, DType: tensor.Int32}
		if s := op.Attrs.Float("requant_input_scale", 0); s > 0 {
			mainTy.Quant = &tensor.QuantParams{Scale: s}
		}
		reqAttrs := relay.Attrs{}
		for _, k := range []string{"input_scale", "input_zero_point",
			"output_scale", "output_zero_point", "out_dtype"} {
			if v, ok := op.Attrs["requant_"+k]; ok {
				reqAttrs[k] = v
			}
		}
		e.stage = tensor.New(tensor.Int32, finalTy.Shape)
		if e.requant, err = topi.Prepare("qnn.requantize", []*relay.TensorType{mainTy}, reqAttrs, finalTy); err != nil {
			return e, err
		}
	}
	mainIn := in
	if e.splitBias {
		mainIn = in[:2]
		if e.biasAdd, err = topi.Prepare("nn.bias_add", []*relay.TensorType{mainTy, in[2]}, emptyAttrs, mainTy); err != nil {
			return e, err
		}
	}
	if e.main, err = topi.Prepare(kernel, mainIn, op.Attrs, mainTy); err != nil {
		return e, err
	}
	switch a := op.Attrs.Str(FusedActivationAttr, ""); a {
	case "":
	case "relu":
		e.hasAct = true
		e.act, err = topi.Prepare("nn.relu", []*relay.TensorType{finalTy}, emptyAttrs, finalTy)
	case "relu6":
		e.hasAct = true
		e.act, err = topi.Prepare("clip", []*relay.TensorType{finalTy}, relu6Attrs, finalTy)
	default:
		err = fmt.Errorf("neuron: unknown fused activation %q", a)
	}
	return e, err
}

// NewExecState builds a working set for cm: the dispatch plan of every
// operation, its kernel launches prepared, and the buffer of every operand
// that is not a model output.
func (cm *CompiledModel) NewExecState() (*ExecState, error) {
	m := cm.Model
	st := &ExecState{
		model:  m,
		values: make([]*tensor.Tensor, len(m.Operands)),
		args:   make([][]*tensor.Tensor, len(m.Operations)),
		opOut:  make([]*tensor.Tensor, len(m.Operations)),
		outAt:  make([]int, len(m.Operations)),
		ops:    make([]opExec, len(m.Operations)),
	}
	outAt := make(map[int]int, len(m.Outputs))
	for k := len(m.Outputs) - 1; k >= 0; k-- {
		outAt[m.Outputs[k]] = k
	}
	for oi, op := range m.Operations {
		st.args[oi] = make([]*tensor.Tensor, len(op.Inputs))
		if k, ok := outAt[op.Outputs[0]]; ok {
			st.outAt[oi] = k
		} else {
			st.opOut[oi] = newOperandTensor(m.Operands[op.Outputs[0]])
		}
		e, err := buildOpExec(m, op)
		if err != nil {
			return nil, fmt.Errorf("neuron: operation %d (%s): %w", oi, op.Code, err)
		}
		st.ops[oi] = e
	}
	return st, nil
}

// PreparedBytes is what the working set's prepared launches hold: the
// indirection tables and zero rows of its convolutions and dense layers.
func (st *ExecState) PreparedBytes() int {
	n := 0
	for i := range st.ops {
		n += st.ops[i].main.Bytes()
	}
	return n
}

// Execute runs the compiled model on the given inputs (one tensor per
// Model.Inputs entry, in order) and returns freshly allocated output tensors,
// using a fresh working set: the convenience form of ExecuteInto for callers
// that keep no state (the reference interpreter, tests).
func (cm *CompiledModel) Execute(inputs []*tensor.Tensor) ([]*tensor.Tensor, error) {
	outs := make([]*tensor.Tensor, len(cm.Model.Outputs))
	for k, idx := range cm.Model.Outputs {
		outs[k] = newOperandTensor(cm.Model.Operands[idx])
	}
	st, err := cm.NewExecState()
	if err != nil {
		return nil, err
	}
	if err := cm.ExecuteInto(st, inputs, outs); err != nil {
		return nil, err
	}
	return outs, nil
}

// ExecuteInto runs the compiled model on the given inputs (one tensor per
// Model.Inputs entry, in order) with the working set st, writing model
// output k into outs[k]: an operation whose result is a model output writes
// there directly, and an output no operation produces (a passed-through
// input, a constant, a repeated output) is copied in. outs must not alias
// the inputs. It computes numerics only; Estimate charges the same plan's
// simulated cost.
//
//np:hotpath
func (cm *CompiledModel) ExecuteInto(st *ExecState, inputs, outs []*tensor.Tensor) error {
	m := cm.Model
	if st.model != m {
		return fmt.Errorf("neuron: model %q executed with another model's state", m.Name)
	}
	if len(inputs) != len(m.Inputs) {
		return fmt.Errorf("neuron: model %q expects %d inputs, got %d", m.Name, len(m.Inputs), len(inputs))
	}
	if len(outs) != len(m.Outputs) {
		return fmt.Errorf("neuron: model %q has %d outputs, got %d buffers", m.Name, len(m.Outputs), len(outs))
	}
	values := st.values
	for i, od := range m.Operands {
		if od.IsConst() {
			values[i] = od.Const
		} else {
			values[i] = nil
		}
	}
	for i, idx := range m.Inputs {
		in := inputs[i]
		want := m.Operands[idx].Type
		if !in.Shape.Equal(want.Shape) || in.DType != want.DType {
			return fmt.Errorf("neuron: input %d is %s%s, model wants %s", i, in.DType, in.Shape, want)
		}
		// The caller may refill an input between runs — a weight or bias
		// included: nothing derived from its data may be kept.
		in.MarkVolatile()
		values[idx] = in
	}

	for oi, op := range m.Operations {
		args := st.args[oi]
		for ai, in := range op.Inputs {
			if values[in] == nil {
				return fmt.Errorf("neuron: operation %d (%s) input operand %d undefined", oi, op.Code, in)
			}
			args[ai] = values[in]
		}
		dst := st.opOut[oi]
		if dst == nil {
			dst = outs[st.outAt[oi]]
		}
		if err := runOperation(st, oi, args, dst); err != nil {
			return fmt.Errorf("neuron: operation %d (%s): %w", oi, op.Code, err)
		}
		values[op.Outputs[0]] = dst
	}

	for k, idx := range m.Outputs {
		v := values[idx]
		if v == nil {
			return fmt.Errorf("neuron: model output operand %d undefined", idx)
		}
		if v != outs[k] {
			if err := outs[k].CopyFrom(v); err != nil {
				return fmt.Errorf("neuron: model output %d: %w", k, err)
			}
		}
	}
	return nil
}

// runOperation executes one (possibly fused) Neuron operation into dst
// following the dispatch plan prepared at state creation: either a single
// fused launch, or the staged anchor → bias_add → requantize → activation
// chain with elementwise stages running in place.
//
//np:hotpath
func runOperation(st *ExecState, oi int, args []*tensor.Tensor, dst *tensor.Tensor) error {
	e := &st.ops[oi]
	if e.fused {
		return e.main.Run(args, dst)
	}
	mainArgs := args
	if e.splitBias {
		mainArgs = args[:2]
	}
	mainDst := dst
	if e.stage != nil {
		mainDst = e.stage
	}
	if err := e.main.Run(mainArgs, mainDst); err != nil {
		return err
	}
	if e.splitBias {
		st.pair[0], st.pair[1] = mainDst, args[2]
		if err := e.biasAdd.Run(st.pair[:2], mainDst); err != nil {
			return err
		}
	}
	if e.stage != nil {
		st.pair[0] = mainDst
		if err := e.requant.Run(st.pair[:1], dst); err != nil {
			return err
		}
	}
	if e.hasAct {
		st.pair[0] = dst
		if err := e.act.Run(st.pair[:1], dst); err != nil {
			return err
		}
	}
	return nil
}

func operandRelayType(od Operand) *relay.TensorType {
	ty := &relay.TensorType{Shape: od.Type.Shape, DType: od.Type.DType}
	if od.Type.Quant != nil {
		q := *od.Type.Quant
		ty.Quant = &q
	}
	return ty
}

// isQuantizedOp decides whether the integer kernel path applies: any
// quantized data input selects it.
func isQuantizedOp(m *Model, op Operation) bool {
	if len(op.Inputs) == 0 {
		return false
	}
	return m.Operands[op.Inputs[0]].Type.DType.IsQuantized()
}
