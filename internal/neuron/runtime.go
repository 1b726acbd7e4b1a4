package neuron

import (
	"fmt"
	"slices"

	"repro/internal/relay"
	"repro/internal/tensor"
	"repro/internal/topi"
)

// The Neuron runtime: how a compiled model's operations compute real
// numerics through the shared kernel inventory. The simulated device time and
// boundary DMA of the same plan are charged by Estimate (planner.go).
//
// In the real stack Neuron ships its own tuned libraries; the simulation
// reuses the reference numerics and models the performance difference purely
// through the engine-efficiency factors of the cost model (see DESIGN.md §2).
// Stages is the one place that maps an operation onto kernel launches. The
// planned executor lowers a region's operations through it into a serial
// sub-plan of the region's node (internal/runtime), with every launch
// prepared once per plan state and every result planned into an arena;
// Execute, the reference interpreter's region evaluator, runs the same
// stages one topi.Run at a time. Conv/dense anchors run their absorbed
// epilogue in the same launch (topi/fused.go): a quantized anchor with an
// absorbed requantize dispatches to the fused kernel (qnn.conv2d_fused,
// qnn.dense_fused), a float one hands its bias and fused_activation to
// nn.conv2d / nn.dense itself.

// Stage is one kernel launch of an operation: the kernel, its attributes,
// its arguments and its result type. An argument is an operand index of the
// model, or Prev for the result of the stage before.
type Stage struct {
	Kernel string
	Attrs  relay.Attrs
	Args   []int
	Out    *relay.TensorType
}

// Prev is the Stage argument naming the previous stage's result.
const Prev = -1

// relu6Attrs is shared read-only by every staged relu6 epilogue.
var relu6Attrs = relay.Attrs{"a_min": 0.0, "a_max": 6.0}

var emptyAttrs = relay.Attrs{}

// Stages returns the launches operation op of m runs as, in order; the last
// one writes the operation's output operand. That is one launch — a float
// conv/dense anchor, or a quantized one with an absorbed requantize and the
// fused kernel — or the staged anchor → nn.bias_add → qnn.requantize →
// nn.relu/clip chain, each stage present only when the fusion pass absorbed
// it. Stage arguments and attributes may share op's; callers must not
// modify them.
func Stages(m *Model, op Operation) ([]Stage, error) {
	final := m.Operands[op.Outputs[0]].Type.Relay()
	quantized := isQuantizedOp(m, op)
	kernel := KernelFor(op.Code, quantized)
	if kernel == "" {
		return nil, fmt.Errorf("neuron: opcode %s has no kernel", op.Code)
	}
	convOrDense := isFusionAnchor(op.Code) && op.Code != Add
	requant := op.Attrs.Bool(FusedRequantAttr, false)
	if f := op.Code.row().fused; !quantized && convOrDense || quantized && f != "" && requant {
		// nn.conv2d and nn.dense take the bias as args[2] and
		// fused_activation as their row epilogue; a quantized anchor with an
		// absorbed requantize runs the fused kernel.
		if quantized {
			kernel = f
		}
		return []Stage{{Kernel: kernel, Attrs: op.Attrs, Args: op.Inputs, Out: final}}, nil
	}
	anchor := Stage{Kernel: kernel, Attrs: op.Attrs, Args: op.Inputs, Out: final}
	splitBias := convOrDense && len(op.Inputs) >= 3
	if splitBias {
		anchor.Args = op.Inputs[:2]
	}
	if requant {
		// Staged requantize: the anchor produces the int32 accumulator, then
		// qnn.requantize narrows it into the final operand type.
		anchor.Out = &relay.TensorType{Shape: final.Shape, DType: tensor.Int32}
		if s := op.Attrs.Float("requant_input_scale", 0); s > 0 {
			anchor.Out.Quant = &tensor.QuantParams{Scale: s}
		}
	}
	stages := []Stage{anchor}
	if splitBias {
		stages = append(stages, Stage{Kernel: "nn.bias_add", Attrs: emptyAttrs, Args: []int{Prev, op.Inputs[2]}, Out: anchor.Out})
	}
	if requant {
		reqAttrs := relay.Attrs{}
		for _, k := range []string{"input_scale", "input_zero_point",
			"output_scale", "output_zero_point", "out_dtype"} {
			if v, ok := op.Attrs["requant_"+k]; ok {
				reqAttrs[k] = v
			}
		}
		stages = append(stages, Stage{Kernel: "qnn.requantize", Attrs: reqAttrs, Args: []int{Prev}, Out: final})
	}
	switch a := op.Attrs.Str(FusedActivationAttr, ""); a {
	case "":
	case "relu":
		stages = append(stages, Stage{Kernel: "nn.relu", Attrs: emptyAttrs, Args: []int{Prev}, Out: final})
	case "relu6":
		stages = append(stages, Stage{Kernel: "clip", Attrs: relu6Attrs, Args: []int{Prev}, Out: final})
	default:
		return nil, fmt.Errorf("neuron: unknown fused activation %q", a)
	}
	return stages, nil
}

// Execute runs the compiled model on the given inputs (one tensor per
// Model.Inputs entry, in order) and returns freshly allocated output
// tensors: every stage of every operation runs through topi.Run, one after
// another. It is the reference interpreter's region evaluator; it computes
// numerics only, and Estimate charges the same plan's simulated cost.
func (cm *CompiledModel) Execute(inputs []*tensor.Tensor) ([]*tensor.Tensor, error) {
	m := cm.Model
	if len(inputs) != len(m.Inputs) {
		return nil, fmt.Errorf("neuron: model %q expects %d inputs, got %d", m.Name, len(m.Inputs), len(inputs))
	}
	values := make([]*tensor.Tensor, len(m.Operands))
	for i := range m.Operands {
		values[i] = m.Operands[i].Const
	}
	for i, idx := range m.Inputs {
		in, want := inputs[i], m.Operands[idx].Type
		if !in.Shape.Equal(want.Shape) || in.DType != want.DType {
			return nil, fmt.Errorf("neuron: input %d is %s%s, model wants %s", i, in.DType, in.Shape, want)
		}
		// The caller may refill an input between runs — a weight or bias
		// included: nothing derived from its data may be kept.
		in.MarkVolatile()
		values[idx] = in
	}
	for oi, op := range m.Operations {
		stages, err := Stages(m, op)
		if err != nil {
			return nil, fmt.Errorf("neuron: operation %d (%s): %w", oi, op.Code, err)
		}
		var prev *tensor.Tensor
		for _, s := range stages {
			args := make([]*tensor.Tensor, len(s.Args))
			for ai, a := range s.Args {
				if a == Prev {
					args[ai] = prev
				} else if args[ai] = values[a]; args[ai] == nil {
					return nil, fmt.Errorf("neuron: operation %d (%s) input operand %d undefined", oi, op.Code, a)
				}
			}
			if prev, err = topi.Run(s.Kernel, args, s.Attrs, s.Out); err != nil {
				return nil, fmt.Errorf("neuron: operation %d (%s): %w", oi, op.Code, err)
			}
		}
		values[op.Outputs[0]] = prev
	}
	outs := make([]*tensor.Tensor, len(m.Outputs))
	for k, idx := range m.Outputs {
		v := values[idx]
		if v == nil {
			return nil, fmt.Errorf("neuron: model output operand %d undefined", idx)
		}
		if m.Operands[idx].IsConst() || slices.Contains(m.Inputs, idx) {
			v = v.Clone() // a passed-through input or a constant is the caller's to keep
		}
		outs[k] = v
	}
	return outs, nil
}

// Relay returns the operand type as a relay tensor type, with its own copy
// of the quantization parameters.
func (t OperandType) Relay() *relay.TensorType {
	ty := &relay.TensorType{Shape: t.Shape, DType: t.DType}
	if t.Quant != nil {
		q := *t.Quant
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
