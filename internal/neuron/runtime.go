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
// Steady-state execution allocates almost nothing: per-call bookkeeping and
// every intermediate tensor come from a per-model pool (execState), kernels
// write into caller-supplied buffers via topi.RunInto, and conv/dense anchors
// run their absorbed epilogue in the same launch (topi/fused.go): a quantized
// anchor with an absorbed requantize dispatches to the fused kernel
// (qnn.conv2d_fused, qnn.dense_fused), a float one hands its bias and
// fused_activation to nn.conv2d / nn.dense itself.

// execState holds the pooled per-Execute working set. One state serves one
// Execute call at a time; CompiledModel.execState recycles it across calls
// (claimed exclusively with an atomic Swap; see the field's doc comment).
type execState struct {
	values []*tensor.Tensor
	args   [][]*tensor.Tensor
	// opOut[i] is the pooled destination for operation i's output, nil when
	// that operand is a model output: outputs escape the call and must be
	// allocated fresh every Execute.
	opOut []*tensor.Tensor
	ops   []opExec
	// pair is scratch for assembling 1- and 2-argument kernel calls without
	// allocating.
	pair [2]*tensor.Tensor
}

// opExec is the per-operation dispatch plan, derived once from the static
// model so the per-call path does no attribute parsing or type construction.
type opExec struct {
	// kernel is the anchor kernel, or the quantized fused kernel.
	kernel string
	// fused: the whole anchor→bias→(requantize→)activation chain runs as one
	// launch of kernel — a float conv/dense anchor, or a quantized one with
	// an absorbed requantize; args and attrs pass through unchanged.
	fused bool
	// splitBias: args[2] is a bias absorbed by the fusion pass, applied by a
	// separate nn.bias_add stage.
	splitBias bool
	// stage is the pooled int32 accumulator between the anchor and a staged
	// requantize; nil when the anchor writes the final type directly.
	stage      *tensor.Tensor
	finalTy    *relay.TensorType
	mainTy     *relay.TensorType
	reqAttrs   relay.Attrs
	activation string
}

// relu6Attrs is shared read-only by every staged relu6 epilogue.
var relu6Attrs = relay.Attrs{"a_min": 0.0, "a_max": 6.0}

var emptyAttrs = relay.Attrs{}

func newOperandTensor(od Operand) *tensor.Tensor {
	t := tensor.New(od.Type.DType, od.Type.Shape)
	if od.Type.Quant != nil {
		q := *od.Type.Quant
		t.Quant = &q
	}
	return t
}

func buildOpExec(m *Model, op Operation) opExec {
	e := opExec{
		finalTy:    operandRelayType(m.Operands[op.Outputs[0]]),
		activation: op.Attrs.Str(FusedActivationAttr, ""),
	}
	quantized := isQuantizedOp(m, op)
	e.kernel = KernelFor(op.Code, quantized)
	convOrDense := isFusionAnchor(op.Code) && op.Code != Add
	if !quantized && convOrDense {
		// nn.conv2d and nn.dense take the bias as args[2] and
		// fused_activation as their row epilogue.
		e.fused = true
		return e
	}
	e.splitBias = convOrDense && len(op.Inputs) >= 3
	e.mainTy = e.finalTy
	if !op.Attrs.Bool(FusedRequantAttr, false) {
		return e
	}
	if f := op.Code.row().fused; quantized && f != "" {
		e.kernel = f
		e.fused = true
		e.splitBias = false
		return e
	}
	// Staged requantize: the anchor produces the int32 accumulator, then
	// qnn.requantize narrows it into the final operand type.
	e.mainTy = &relay.TensorType{Shape: e.finalTy.Shape, DType: tensor.Int32}
	if s := op.Attrs.Float("requant_input_scale", 0); s > 0 {
		e.mainTy.Quant = &tensor.QuantParams{Scale: s}
	}
	e.reqAttrs = relay.Attrs{}
	for _, k := range []string{"input_scale", "input_zero_point",
		"output_scale", "output_zero_point", "out_dtype"} {
		if v, ok := op.Attrs["requant_"+k]; ok {
			e.reqAttrs[k] = v
		}
	}
	e.stage = tensor.New(tensor.Int32, e.finalTy.Shape)
	return e
}

func (cm *CompiledModel) newExecState() *execState {
	m := cm.Model
	st := &execState{
		values: make([]*tensor.Tensor, len(m.Operands)),
		args:   make([][]*tensor.Tensor, len(m.Operations)),
		opOut:  make([]*tensor.Tensor, len(m.Operations)),
		ops:    make([]opExec, len(m.Operations)),
	}
	isOut := make([]bool, len(m.Operands))
	for _, idx := range m.Outputs {
		isOut[idx] = true
	}
	for oi, op := range m.Operations {
		st.args[oi] = make([]*tensor.Tensor, len(op.Inputs))
		if !isOut[op.Outputs[0]] {
			st.opOut[oi] = newOperandTensor(m.Operands[op.Outputs[0]])
		}
		st.ops[oi] = buildOpExec(m, op)
	}
	return st
}

// Execute runs the compiled model on the given inputs (one tensor per
// Model.Inputs entry, in order) and returns the output tensors. It computes
// numerics only; Estimate charges the same plan's simulated cost.
func (cm *CompiledModel) Execute(inputs []*tensor.Tensor) ([]*tensor.Tensor, error) {
	m := cm.Model
	if len(inputs) != len(m.Inputs) {
		return nil, fmt.Errorf("neuron: model %q expects %d inputs, got %d", m.Name, len(m.Inputs), len(inputs))
	}
	st := cm.execState.Swap(nil)
	if st == nil {
		st = cm.newExecState()
	}
	defer cm.execState.Store(st)
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
			return nil, fmt.Errorf("neuron: input %d is %s%s, model wants %s", i, in.DType, in.Shape, want)
		}
		values[idx] = in
	}

	for oi, op := range m.Operations {
		args := st.args[oi]
		for ai, in := range op.Inputs {
			if values[in] == nil {
				return nil, fmt.Errorf("neuron: operation %d (%s) input operand %d undefined", oi, op.Code, in)
			}
			args[ai] = values[in]
		}
		dst := st.opOut[oi]
		if dst == nil {
			// Model output: it outlives this call, so it cannot be pooled.
			dst = newOperandTensor(m.Operands[op.Outputs[0]])
		}
		res, err := runOperation(st, oi, op, args, dst)
		if err != nil {
			return nil, fmt.Errorf("neuron: operation %d (%s): %w", oi, op.Code, err)
		}
		values[op.Outputs[0]] = res
	}

	outs := make([]*tensor.Tensor, len(m.Outputs))
	for i, idx := range m.Outputs {
		if values[idx] == nil {
			return nil, fmt.Errorf("neuron: model output operand %d undefined", idx)
		}
		outs[i] = values[idx]
	}
	return outs, nil
}

// runOperation executes one (possibly fused) Neuron operation into dst
// following the dispatch plan prepared at state creation: either a single
// fused launch, or the staged anchor → bias_add → requantize → activation
// chain with elementwise stages running in place.
func runOperation(st *execState, oi int, op Operation, args []*tensor.Tensor, dst *tensor.Tensor) (*tensor.Tensor, error) {
	e := &st.ops[oi]
	if e.kernel == "" {
		return nil, fmt.Errorf("neuron: opcode %s has no kernel", op.Code)
	}
	if e.fused {
		if err := topi.RunInto(e.kernel, args, op.Attrs, e.finalTy, dst); err != nil {
			return nil, err
		}
		return dst, nil
	}
	mainArgs := args
	var bias *tensor.Tensor
	if e.splitBias {
		bias = args[2]
		mainArgs = args[:2]
	}
	mainDst := dst
	if e.stage != nil {
		mainDst = e.stage
	}
	if err := topi.RunInto(e.kernel, mainArgs, op.Attrs, e.mainTy, mainDst); err != nil {
		return nil, err
	}
	if bias != nil {
		st.pair[0], st.pair[1] = mainDst, bias
		if err := topi.RunInto("nn.bias_add", st.pair[:2], emptyAttrs, e.mainTy, mainDst); err != nil {
			return nil, err
		}
	}
	if e.stage != nil {
		st.pair[0] = mainDst
		if err := topi.RunInto("qnn.requantize", st.pair[:1], e.reqAttrs, e.finalTy, dst); err != nil {
			return nil, err
		}
	}
	switch e.activation {
	case "":
	case "relu":
		st.pair[0] = dst
		if err := topi.RunInto("nn.relu", st.pair[:1], emptyAttrs, e.finalTy, dst); err != nil {
			return nil, err
		}
	case "relu6":
		st.pair[0] = dst
		if err := topi.RunInto("clip", st.pair[:1], relu6Attrs, e.finalTy, dst); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("neuron: unknown fused activation %q", e.activation)
	}
	return dst, nil
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
